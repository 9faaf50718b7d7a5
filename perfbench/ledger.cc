#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>

#include "common/metrics.hh"
#include "perfbench.hh"

namespace perfbench
{

// ---------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names; run.py
// refuses a result whose names differ from it.
// ---------------------------------------------------------------

const std::map<std::string, std::string> &
metricUnits()
{
    static const std::map<std::string, std::string> units = [] {
        std::map<std::string, std::string> u = {
            {"throughput_per_s", "1/s"},
            {"setup_s", "s"},
            {"peak_rss_mb", "MB"},
            {"trace.coverage", "%"},
            {"trace.overhead", "%"},
            {"parallel.utilization", "%"},
            {"mc_trials_per_s", "1/s"},
            {"iss_insns_per_s", "1/s"},
            {"classify_candidates_per_s", "1/s"},
            {"synth.cache.hit_ratio", "%"},
            {"fault.defective_share", "%"},
        };
        for (const char *layer :
             {"core.elaborate", "synth.optimize", "netlist.validate",
              "netlist.stats", "analysis.area", "analysis.timing",
              "analysis.power", "dse.system_eval", "arch.iss",
              "progspec", "mem", "analysis.fault", "legacy.iss",
              "ml.evolve", "service.synth_hot", "service.synth_cold",
              "service.yield", "service.iss_sweep",
              "service.sweep_stream", "service.classify_stream",
              "service.admin"})
            u[std::string(layer) + ".share"] = "%";
        for (const char *core : {"msp430", "z80", "light8080", "zpu"})
            u[std::string("legacy.iss.") + core + ".insns_per_s"] =
                "1/s";
        for (const char *count :
             {"synth.cores_built", "synth.core.gates_pre_opt",
              "synth.opt.gates_removed", "analysis.characterizations",
              "arch.iss.instructions", "dse.points",
              "synth.cache.netlist_hits", "synth.cache.netlist_misses",
              "synth.cache.netlist_evictions", "fault.trials",
              "fault.trials_fatal", "fault.trials_masked",
              "fault.trials_benign", "fault.trials_defect_free",
              "sim.batch.cycles", "sim.batch.settles",
              "sim.batch.toggles", "iss.instructions", "iss.cycles",
              "ml.candidates_scored", "ml.generations",
              "ml.pruned_gates", "parallel.jobs", "parallel.items",
              "service.replies_ok", "service.replies_error",
              "service.rejected", "service.stream_partials"})
            u[count] = "count";
        return u;
    }();
    return units;
}

const std::vector<std::string> &
endToEndMetrics()
{
    static const std::vector<std::string> names = {
        "throughput_per_s", "setup_s", "peak_rss_mb"};
    return names;
}

const std::vector<std::string> &
perLayerMetrics()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        const auto &e2e = endToEndMetrics();
        for (const auto &[name, unit] : metricUnits())
            if (std::find(e2e.begin(), e2e.end(), name) == e2e.end())
                n.push_back(name);
        return n;
    }();
    return names;
}

// ---------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------

namespace
{
std::atomic<std::uint64_t> gFailures{0};
std::mutex gOutput;
} // namespace

void
fail(const std::string &what)
{
    ++gFailures;
    std::lock_guard<std::mutex> lock(gOutput);
    std::cout << "FAIL: " << what << "\n";
}

std::uint64_t
failures()
{
    return gFailures;
}

bool
check(bool ok, const std::string &what)
{
    if (!ok)
        fail(what);
    return ok;
}

// ---------------------------------------------------------------
// Counters
// ---------------------------------------------------------------

Counts
counterSnapshot()
{
    Counts out;
    for (const auto &[name, value] :
         printed::metrics::Registry::global().snapshot().counters)
        out[name] = value;
    return out;
}

Counts
counterDelta(const Counts &after, const Counts &before)
{
    Counts out;
    for (const auto &[name, value] : after)
        out[name] = value - countOf(before, name);
    return out;
}

std::uint64_t
countOf(const Counts &c, const std::string &name)
{
    const auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
}

void
checkSameCounts(const Counts &a, const Counts &b,
                const std::string &what)
{
    Counts all = a;
    all.insert(b.begin(), b.end());
    for (const auto &entry : all) {
        const std::string &name = entry.first;
        // Each pool worker that claims a fault-MC block builds its
        // own batch cosims, and construction settles the netlist, so
        // these count once per claiming worker: a scheduling
        // detail, not work the results depend on.
        if (name.rfind("sim.batch.", 0) == 0)
            continue;
        if (countOf(a, name) != countOf(b, name)) {
            fail(what + ": counter " + name + " moved by " +
                 std::to_string(countOf(a, name)) + " vs " +
                 std::to_string(countOf(b, name)));
        }
    }
}

void
reportCounts(const Counts &c, Values &out)
{
    for (const auto &[name, unit] : metricUnits())
        if (unit == "count")
            out[name] = double(countOf(c, name));
    const double hits = double(countOf(c, "synth.cache.netlist_hits"));
    const double lookups =
        hits + double(countOf(c, "synth.cache.netlist_misses"));
    out["synth.cache.hit_ratio"] = lookups > 0 ? 100.0 * hits / lookups : 0;
    const double trials = double(countOf(c, "fault.trials"));
    out["fault.defective_share"] =
        trials > 0
            ? 100.0 *
                  (trials - double(countOf(c, "fault.trials_defect_free"))) /
                  trials
            : 0;
}

double
poolBusyMs()
{
    for (const auto &[name, s] :
         printed::metrics::Registry::global().snapshot().distributions)
        if (name == "parallel.worker_busy_ms")
            return s.mean * double(s.count);
    return 0;
}

double
peakRssMb(int pid)
{
    const std::string path =
        pid ? "/proc/" + std::to_string(pid) + "/status"
            : std::string("/proc/self/status");
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

// ---------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------

double
percentile(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0;
    const double rank = std::ceil(pct / 100.0 * double(sorted.size()));
    const std::size_t idx =
        std::size_t(std::clamp(rank, 1.0, double(sorted.size()))) - 1;
    return sorted[idx];
}

double
tailPercentile(std::size_t samples)
{
    for (double pct : {99.0, 95.0, 90.0, 75.0, 50.0}) {
        const double rank = std::ceil(pct / 100.0 * double(samples));
        if (double(samples) - rank >= 10)
            return pct;
    }
    return 50;
}

Summary
summarize(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Summary s;
    s.n = samples.size();
    s.p10 = percentile(samples, 10);
    s.p50 = percentile(samples, 50);
    s.tailPct = tailPercentile(samples.size());
    s.tail = percentile(samples, s.tailPct);
    return s;
}

Summary
summarizeWindows(const std::vector<double> &samples, std::size_t window)
{
    const std::size_t k = std::max<std::size_t>(1, samples.size() / window);
    Summary s = summarize(samples);
    std::vector<double> tails;
    for (std::size_t w = 0; w < k; ++w) {
        const auto first = samples.begin() + std::ptrdiff_t(w * samples.size() / k);
        const auto last =
            samples.begin() + std::ptrdiff_t((w + 1) * samples.size() / k);
        const Summary ws = summarize(std::vector<double>(first, last));
        tails.push_back(ws.tail);
        s.tailPct = ws.tailPct;
    }
    s.tail = median(tails);
    s.windows = k;
    return s;
}

void
printSummary(const std::string &name, const Summary &s,
             const std::string &unit)
{
    std::cout << "  " << std::left << std::setw(34) << name
              << std::right << " p10 " << std::setw(10) << s.p10
              << "  p50 " << std::setw(10) << s.p50
              << "  p" << s.tailPct << " " << std::setw(10) << s.tail
              << " " << unit << "  (n = " << s.n;
    if (s.windows > 1)
        std::cout << "; tail = median of " << s.windows << " windows";
    std::cout << ")\n";
}

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// ---------------------------------------------------------------
// Span ledger
// ---------------------------------------------------------------

Fold
foldSpans(const std::vector<std::vector<SpanRecord>> &threads)
{
    struct Open
    {
        const SpanRecord *rec;
        std::int64_t childNs = 0;
        bool hasChild = false;
    };
    Fold fold;
    std::int64_t totalNs = 0, leafNs = 0;
    std::map<std::string, std::int64_t> selfNs;
    for (const auto &spans : threads) {
        std::vector<SpanRecord> sorted = spans;
        // Parents first: earlier start, then the longer span.
        std::sort(sorted.begin(), sorted.end(),
                  [](const SpanRecord &a, const SpanRecord &b) {
                      return a.start != b.start ? a.start < b.start
                                                : a.end > b.end;
                  });
        std::vector<Open> stack;
        auto close = [&](const Open &o) {
            const std::int64_t dur = o.rec->end - o.rec->start;
            LayerRow &row = fold.layers[o.rec->name];
            ++row.calls;
            selfNs[o.rec->name] += dur - o.childNs;
            if (o.hasChild)
                row.leaf = false;
            else
                leafNs += dur;
        };
        for (const SpanRecord &rec : sorted) {
            while (!stack.empty() && stack.back().rec->end <= rec.start) {
                close(stack.back());
                stack.pop_back();
            }
            if (stack.empty()) {
                totalNs += rec.end - rec.start;
            } else {
                stack.back().childNs += rec.end - rec.start;
                stack.back().hasChild = true;
            }
            stack.push_back({&rec});
        }
        while (!stack.empty()) {
            close(stack.back());
            stack.pop_back();
        }
    }
    for (auto &[name, row] : fold.layers)
        row.selfMs = double(selfNs[name]) / 1e6;
    fold.totalMs = double(totalNs) / 1e6;
    fold.leafMs = double(leafNs) / 1e6;
    return fold;
}

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Every thread's span buffer; a thread registers on first span. */
struct LedgerState
{
    std::mutex mutex;
    std::vector<std::shared_ptr<std::vector<SpanRecord>>> buffers;
    std::atomic<bool> on{false};
};

LedgerState &
ledger()
{
    static LedgerState state;
    return state;
}

std::vector<SpanRecord> &
threadBuffer()
{
    thread_local std::shared_ptr<std::vector<SpanRecord>> buffer = [] {
        auto b = std::make_shared<std::vector<SpanRecord>>();
        b->reserve(1 << 14);
        std::lock_guard<std::mutex> lock(ledger().mutex);
        ledger().buffers.push_back(b);
        return b;
    }();
    return *buffer;
}

} // namespace

void
ledgerStart()
{
    LedgerState &l = ledger();
    std::lock_guard<std::mutex> lock(l.mutex);
    for (auto &b : l.buffers)
        b->clear();
    l.on.store(true, std::memory_order_relaxed);
}

Fold
ledgerStop()
{
    LedgerState &l = ledger();
    l.on.store(false, std::memory_order_relaxed);
    std::vector<std::vector<SpanRecord>> threads;
    std::lock_guard<std::mutex> lock(l.mutex);
    for (const auto &b : l.buffers)
        threads.push_back(*b);
    return foldSpans(threads);
}

bool
ledgerOn()
{
    return ledger().on.load(std::memory_order_relaxed);
}

void
ledgerRecord(const char *name, Clock::time_point start,
             Clock::time_point end)
{
    if (ledgerOn())
        threadBuffer().push_back(
            {name,
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 start.time_since_epoch())
                 .count(),
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 end.time_since_epoch())
                 .count()});
}

Span::Span(const char *name)
    : name_(name), start_(ledgerOn() ? nowNs() : -1)
{}

Span::~Span()
{
    if (start_ >= 0)
        threadBuffer().push_back({name_, start_, nowNs()});
}

void
reportFold(const Fold &fold, double passes, Values &out)
{
    std::cout << "\nLayer ledger (benchmark-side spans; self time per "
                 "pass, share of traced thread time):\n";
    std::cout << "  " << std::left << std::setw(28) << "span"
              << std::right << std::setw(12) << "self ms"
              << std::setw(10) << "share %" << std::setw(12)
              << "calls" << "  kind\n";
    for (const auto &[name, row] : fold.layers) {
        const double share =
            fold.totalMs > 0 ? 100.0 * row.selfMs / fold.totalMs : 0;
        std::cout << "  " << std::left << std::setw(28) << name
                  << std::right << std::fixed << std::setprecision(3)
                  << std::setw(12) << row.selfMs / passes
                  << std::setprecision(2) << std::setw(10) << share
                  << std::setw(12) << std::setprecision(1)
                  << double(row.calls) / passes << "  "
                  << (row.leaf ? "leaf" : "glue") << "\n"
                  << std::defaultfloat << std::setprecision(6);
        const std::string key = name + ".share";
        if (metricUnits().count(key))
            out[key] = share;
    }
    out["trace.coverage"] = 100.0 * fold.coverage();
    std::cout << "  traced thread time " << fold.totalMs / passes
              << " ms per pass; leaf spans cover "
              << 100.0 * fold.coverage() << " %\n";

    // The same self time by module (the name up to its first dot).
    std::map<std::string, double> modules;
    for (const auto &[name, row] : fold.layers)
        modules[name.substr(0, name.find('.'))] += row.selfMs;
    std::cout << "  by module:";
    for (const auto &[module, ms] : modules)
        std::cout << " " << module << " " << std::fixed
                  << std::setprecision(1) << 100.0 * ms / fold.totalMs
                  << " %" << std::defaultfloat << std::setprecision(6);
    std::cout << "\n";
}

} // namespace perfbench
