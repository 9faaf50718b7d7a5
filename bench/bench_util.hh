/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: a
 * uniform header banner, paper-vs-measured comparison lines, and a
 * small JSON report writer so benches can emit machine-readable
 * results (--json <path>) for trajectory tracking alongside the
 * human-readable tables.
 */

#ifndef PRINTED_BENCH_BENCH_UTIL_HH
#define PRINTED_BENCH_BENCH_UTIL_HH

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json_min.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/table.hh"
#include "common/trace.hh"

namespace printed::bench
{

// The escaping helpers moved to common/json_min.hh when the JSON
// layer was promoted for the evaluation service; these aliases keep
// the bench-side spelling working.
using json::jsonEscape;
using json::jsonQuote;

/** Print the standard banner for one reproduced artifact. */
inline void
banner(const std::string &artifact, const std::string &caption)
{
    std::cout << "\n=== " << artifact << " ===\n"
              << caption << "\n\n";
}

/** Print one paper-vs-measured comparison line. */
inline void
compare(const std::string &what, double paper, double measured,
        const std::string &unit = "")
{
    const double ratio = paper != 0 ? measured / paper : 0.0;
    std::cout << "  " << std::left << std::setw(44) << what
              << " paper " << std::setw(10) << paper << " measured "
              << std::setw(10) << measured;
    if (!unit.empty())
        std::cout << " " << unit;
    std::cout << "  (x" << std::setprecision(3) << ratio << ")\n"
              << std::setprecision(6);
}

// ----------------------------------------------------------------
// JSON reporting
// ----------------------------------------------------------------

/** One pre-rendered JSON scalar (string, number, or bool). */
class JsonValue
{
  public:
    JsonValue(const char *s) : text_(jsonQuote(s)) {}
    JsonValue(const std::string &s) : text_(jsonQuote(s)) {}
    JsonValue(bool v) : text_(v ? "true" : "false") {}
    JsonValue(double v) { render(v); }

    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T>>>
    JsonValue(T v) : text_(std::to_string(v))
    {}

    const std::string &text() const { return text_; }

  private:
    void
    render(double v)
    {
        if (!std::isfinite(v)) {
            text_ = "null"; // JSON has no inf/nan
            return;
        }
        std::ostringstream os;
        os << std::setprecision(12) << v;
        text_ = os.str();
    }

    std::string text_;
};

/** One JSON object, built as ordered key/value pairs. */
using JsonRecord = std::vector<std::pair<std::string, JsonValue>>;

/**
 * Accumulates named record arrays plus top-level scalars and writes
 * them as one JSON document:
 *
 *   { "bench": "...", "<scalar>": ..., "<array>": [ {...}, ... ] }
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string bench_name)
        : bench_(std::move(bench_name))
    {}

    /** Set a top-level scalar (e.g. the parameters of the run). */
    void
    meta(const std::string &key, JsonValue value)
    {
        meta_.emplace_back(key, std::move(value));
    }

    /** Append one record to the named array (created on first use). */
    void
    add(const std::string &array, JsonRecord record)
    {
        for (auto &a : arrays_) {
            if (a.first == array) {
                a.second.push_back(std::move(record));
                return;
            }
        }
        arrays_.push_back({array, {std::move(record)}});
    }

    /**
     * Whether write() appends the uniform "metrics" block (a
     * snapshot of the process metrics registry). On by default;
     * tests that compare exact document text turn it off.
     */
    void enableMetrics(bool on) { metricsBlock_ = on; }

    void
    write(std::ostream &os) const
    {
        os << "{\n  \"bench\": " << JsonValue(bench_).text();
        for (const auto &m : meta_)
            os << ",\n  " << JsonValue(m.first).text() << ": "
               << m.second.text();
        for (const auto &a : arrays_) {
            os << ",\n  " << JsonValue(a.first).text() << ": [\n";
            for (std::size_t i = 0; i < a.second.size(); ++i) {
                os << "    {";
                const JsonRecord &rec = a.second[i];
                for (std::size_t f = 0; f < rec.size(); ++f)
                    os << (f ? ", " : "")
                       << JsonValue(rec[f].first).text() << ": "
                       << rec[f].second.text();
                os << "}" << (i + 1 < a.second.size() ? "," : "")
                   << "\n";
            }
            os << "  ]";
        }
        if (metricsBlock_)
            writeMetrics(os);
        os << "\n}\n";
    }

    /** Write to a file; fatal() if the file cannot be opened. */
    void
    writeTo(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            fatal("cannot open JSON output file '" + path + "'");
        write(os);
        std::cout << "\nJSON report written to " << path << "\n";
    }

  private:
    /**
     * The uniform "metrics" block: a snapshot of every registered
     * counter, gauge, and distribution summary, in registry (name)
     * order. Same vocabulary in every bench report.
     */
    void
    writeMetrics(std::ostream &os) const
    {
        const metrics::Snapshot snap =
            metrics::Registry::global().snapshot();
        os << ",\n  \"metrics\": {\n    \"counters\": {";
        for (std::size_t i = 0; i < snap.counters.size(); ++i)
            os << (i ? ", " : "")
               << JsonValue(snap.counters[i].first).text() << ": "
               << snap.counters[i].second;
        os << "},\n    \"gauges\": {";
        for (std::size_t i = 0; i < snap.gauges.size(); ++i)
            os << (i ? ", " : "")
               << JsonValue(snap.gauges[i].first).text() << ": "
               << JsonValue(snap.gauges[i].second).text();
        os << "},\n    \"distributions\": {";
        for (std::size_t i = 0; i < snap.distributions.size(); ++i) {
            const auto &[name, s] = snap.distributions[i];
            os << (i ? ", " : "") << JsonValue(name).text()
               << ": {\"count\": " << s.count
               << ", \"mean\": " << JsonValue(s.mean).text()
               << ", \"p50\": " << JsonValue(s.p50).text()
               << ", \"p95\": " << JsonValue(s.p95).text()
               << ", \"max\": " << JsonValue(s.max).text() << "}";
        }
        os << "}\n  }";
    }

    std::string bench_;
    JsonRecord meta_;
    std::vector<std::pair<std::string, std::vector<JsonRecord>>>
        arrays_;
    bool metricsBlock_ = true;
};

/**
 * Wall-clock stopwatch for the perf-trajectory fields of the
 * --json reports (BENCH_*.json): construction starts the clock.
 */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Milliseconds elapsed since construction. */
    double
    elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Value of "--json <path>" in argv, or "" when absent. A bare
 * "--json" (last argument, or followed by another "--flag") uses
 * `flagOnlyFallback` when one is provided, so invocations like
 * "--json --trace-out t.json" don't swallow the next flag as the
 * report path.
 */
inline std::string
jsonPathFromArgs(int argc, char **argv,
                 const std::string &flagOnlyFallback = "")
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--json")
            continue;
        if (i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0)
            return argv[i + 1];
        return flagOnlyFallback;
    }
    return "";
}

/**
 * Set up tracing for a bench main(): honours the PRINTED_TRACE
 * environment variable (via trace::initFromEnv) and a
 * "--trace-out <path>" argument (which wins when both are given),
 * and names the calling thread for the trace viewer. Call it first
 * thing in main().
 */
inline void
initObservability(int argc, char **argv)
{
    trace::initFromEnv();
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--trace-out")
            trace::enable(argv[i + 1]);
    trace::setThreadName("main");
}

/**
 * Value of "--<name> <number>" in argv, or fallback when absent.
 * The whole value must parse as a T: an empty value, a sign,
 * trailing characters, or a value outside T's range fatal()s with a
 * message naming the flag.
 */
template <typename T = std::uint64_t>
T
uintFromArgs(int argc, char **argv, const std::string &name,
             std::type_identity_t<T> fallback)
{
    static_assert(std::is_unsigned_v<T>);
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) != "--" + name)
            continue;
        const std::string_view text = argv[i + 1];
        T value{};
        const auto [end, ec] = std::from_chars(
            text.data(), text.data() + text.size(), value);
        if (ec != std::errc() || end != text.data() + text.size())
            fatal("--" + name + " expects a whole number from 0 to " +
                  std::to_string(std::numeric_limits<T>::max()) +
                  ", got '" + std::string(text) + "'");
        return value;
    }
    return fallback;
}

} // namespace printed::bench

#endif // PRINTED_BENCH_BENCH_UTIL_HH
