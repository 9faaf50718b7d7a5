/**
 * @file
 * Shared pieces of the perfbench program: run arguments, the report
 * every workload returns, the output checks, counter deltas, the
 * percentile rule, and the benchmark-side span ledger.
 *
 * The benchmark only calls the repository's public entry points. In
 * a traced run it wraps every call it makes in a Span; the ledger
 * folds those spans into per-layer self time (a span's duration
 * minus the part its children cover). Spans are recorded by the
 * benchmark, never inside the program, so the program runs the same
 * code in traced and untraced runs.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since t0. */
inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Set-ups per run; setup_s is their median. */
constexpr int setupRepeats = 5;

/** Arguments of one run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Sets the fixed amount of work (see README.md "Run length"). */
    unsigned seconds = 10;
    bool trace = false;
    /** The printedd binary (serve only). */
    std::string printedd;
};

/** Metric name -> value; units live in metricUnits(). */
using Values = std::map<std::string, double>;

/** What one workload run reports; failures are counted by fail(). */
struct Report
{
    std::uint64_t attempted = 0;
    Values metrics;
};

/** Unit of every metric the benchmark can emit, by name. */
const std::map<std::string, std::string> &metricUnits();

/** End-to-end metric names (the untraced run reports each). */
const std::vector<std::string> &endToEndMetrics();

/** Per-layer metric names (the traced run reports each). */
const std::vector<std::string> &perLayerMetrics();

Report runDesign(const Args &args);
Report runSimulate(const Args &args);
Report runServe(const Args &args);

/** Self-test of the percentile rule, span fold and schedules. */
int runSelfTest();

/** One request line of the serve workload's seeded mix. */
struct ServeRequest
{
    int cls = 0;       ///< request class (serve.cc)
    std::string id;
    std::string line;  ///< without the newline
    double dueMs = 0;  ///< open loop: send time after the phase start
    unsigned hot = 0;  ///< hot synth: which reference reply it gets
    std::uint64_t partials = 0; ///< streamed: partial frames due
};

/** The request lists of one serve run. */
struct ServeSchedule
{
    std::vector<ServeRequest> open;   ///< phase 1, Poisson due times
    std::vector<ServeRequest> closed; ///< phase 2
    std::vector<ServeRequest> base;   ///< traced run: untraced baseline
    std::vector<ServeRequest> traced; ///< traced run: twin of base
};

/** The serve schedule of a seed: same seed, same lines and times. */
ServeSchedule serveSchedule(std::uint64_t seed, std::size_t openN,
                            double openRatePerS, std::size_t closedN,
                            std::size_t tracedN);

// ---------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------

/** Print "FAIL: what" and count one failed operation. */
void fail(const std::string &what);

/** Failed operations counted so far in this process. */
std::uint64_t failures();

/** fail(what) unless ok; returns ok. */
bool check(bool ok, const std::string &what);

// ---------------------------------------------------------------
// Exact work counters
// ---------------------------------------------------------------

using Counts = std::map<std::string, std::uint64_t>;

/** Every counter of the process metrics registry. */
Counts counterSnapshot();

/** after - before, per counter (counters absent before count 0). */
Counts counterDelta(const Counts &after, const Counts &before);

/** Count of `name` in `c`, 0 when absent. */
std::uint64_t countOf(const Counts &c, const std::string &name);

/**
 * Check that two passes moved the counters by exactly the same
 * amounts (sim.batch.* excepted, see ledger.cc); `what` names the
 * comparison in a FAIL line.
 */
void checkSameCounts(const Counts &a, const Counts &b,
                     const std::string &what);

/**
 * Copy every count metric of the catalogue from `c` into `out`, plus
 * the ratios derived from counts (cache hit ratio, defective share).
 */
void reportCounts(const Counts &c, Values &out);

/** Pool busy time recorded so far (parallel.worker_busy_ms sum). */
double poolBusyMs();

/** Peak resident set size (VmHWM) of a process, in MB. */
double peakRssMb(int pid = 0);

// ---------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------

/** Nearest-rank percentile of sorted samples (pct in (0, 100]). */
double percentile(const std::vector<double> &sorted, double pct);

/**
 * The highest of p99, p95, p90, p75, p50 that has at least 10
 * samples beyond it; p50 when there are fewer than 20 samples.
 */
double tailPercentile(std::size_t samples);

/** p10, median and tail of a sample set, with the sample count. */
struct Summary
{
    std::size_t n = 0;
    double p10 = 0;
    double p50 = 0;
    double tailPct = 50;
    double tail = 0;
    std::size_t windows = 1;
};

Summary summarize(std::vector<double> samples);

/**
 * Like summarize(), but the tail is the median, over consecutive
 * windows of at least `window` samples, of each window's tail
 * percentile: a stall of the machine moves one window's tail, not
 * the reported one.
 */
Summary summarizeWindows(const std::vector<double> &samples,
                         std::size_t window);

/** Print one summary line: p10, p50, tail percentile, sample count. */
void printSummary(const std::string &name, const Summary &s,
                  const std::string &unit);

/** Median of a non-empty sample set. */
double median(std::vector<double> samples);

// ---------------------------------------------------------------
// Span ledger
// ---------------------------------------------------------------

/** One recorded span, in nanoseconds of the steady clock. */
struct SpanRecord
{
    const char *name;
    std::int64_t start;
    std::int64_t end;
};

/** One row of the folded ledger. */
struct LayerRow
{
    std::uint64_t calls = 0;
    double selfMs = 0;
    bool leaf = true; ///< no span of this name had children
};

/** Per-layer self time of a set of per-thread span lists. */
struct Fold
{
    std::map<std::string, LayerRow> layers;
    double totalMs = 0; ///< sum of root span durations, all threads
    double leafMs = 0;  ///< time covered by leaf spans

    double coverage() const { return totalMs > 0 ? leafMs / totalMs : 0; }
};

/**
 * Fold spans: on each thread spans nest by time; a span's self
 * time is its duration minus the part its children cover, and
 * leaf spans (no children) are the attributed time.
 */
Fold foldSpans(const std::vector<std::vector<SpanRecord>> &threads);

/** Start recording spans (clears earlier ones). */
void ledgerStart();

/** Stop recording and fold everything recorded since start. */
Fold ledgerStop();

/** True while the ledger records. */
bool ledgerOn();

/** Record a span with explicit ends; a no-op unless recording. */
void ledgerRecord(const char *name, Clock::time_point start,
                  Clock::time_point end);

/** RAII span; a no-op unless the ledger is recording. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    std::int64_t start_;
};

/**
 * Print the ledger table (self ms per pass, share, calls) and add
 * "<span>.share" (percent of traced thread time) for every span
 * name the metric catalogue lists, plus trace.coverage, to `out`.
 */
void reportFold(const Fold &fold, double passes, Values &out);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
