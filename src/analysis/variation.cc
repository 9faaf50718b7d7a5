#include "variation.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/trace.hh"

namespace printed
{

namespace
{

/** Standard-normal sample via Box-Muller on SplitMix64 uniforms. */
double
gaussian(Rng &rng)
{
    // Avoid log(0) by offsetting into (0, 1].
    const double u1 =
        (double(rng.next() >> 11) + 1.0) / 9007199254740993.0;
    const double u2 =
        double(rng.next() >> 11) / 9007199254740992.0;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
}

struct Arrival
{
    double rise = 0;
    double fall = 0;
    double worst() const { return std::max(rise, fall); }
};

/**
 * One STA pass with per-gate delay multipliers. `arrival` is a
 * caller-owned scratch buffer (resized and cleared here) so the
 * Monte-Carlo loop below stays allocation-free per sample.
 */
double
samplePeriod(const Netlist &nl, const CellLibrary &lib,
             const std::vector<GateId> &order,
             const std::vector<double> &mult,
             std::vector<Arrival> &arrival)
{
    arrival.assign(nl.netCount(), Arrival{});
    for (GateId gi = 0; gi < nl.gateCount(); ++gi) {
        const Gate &g = nl.gate(gi);
        if (!cellIsSequential(g.kind))
            continue;
        const CellSpec &spec = lib.cell(g.kind);
        arrival[g.out].rise = std::max(arrival[g.out].rise,
                                       spec.rise_us * mult[gi]);
        arrival[g.out].fall = std::max(arrival[g.out].fall,
                                       spec.fall_us * mult[gi]);
    }

    for (GateId gi : order) {
        const Gate &g = nl.gate(gi);
        const CellSpec &spec = lib.cell(g.kind);
        double in_rise = arrival[g.in0].rise;
        double in_fall = arrival[g.in0].fall;
        if (g.in1 != invalidNet) {
            in_rise = std::max(in_rise, arrival[g.in1].rise);
            in_fall = std::max(in_fall, arrival[g.in1].fall);
        }
        double out_rise, out_fall;
        if (cellIsNonMonotone(g.kind) ||
            g.kind == CellKind::TSBUFX1) {
            const double w = std::max(in_rise, in_fall);
            out_rise = w + spec.rise_us * mult[gi];
            out_fall = w + spec.fall_us * mult[gi];
        } else if (cellIsInverting(g.kind)) {
            out_rise = in_fall + spec.rise_us * mult[gi];
            out_fall = in_rise + spec.fall_us * mult[gi];
        } else {
            out_rise = in_rise + spec.rise_us * mult[gi];
            out_fall = in_fall + spec.fall_us * mult[gi];
        }
        arrival[g.out].rise = std::max(arrival[g.out].rise, out_rise);
        arrival[g.out].fall = std::max(arrival[g.out].fall, out_fall);
    }

    double out_delay = 0, reg_path = 0;
    bool has_flops = false;
    for (const auto &p : nl.outputs())
        out_delay = std::max(out_delay, arrival[p.net].worst());
    for (GateId gi = 0; gi < nl.gateCount(); ++gi) {
        const Gate &g = nl.gate(gi);
        if (!cellIsSequential(g.kind))
            continue;
        has_flops = true;
        double path = arrival[g.in0].worst();
        if (g.in1 != invalidNet)
            path = std::max(path, arrival[g.in1].worst());
        reg_path = std::max(reg_path, path);
    }
    if (has_flops)
        return std::max(reg_path, lib.flopPeriodFloorUs());
    return std::max(out_delay, reg_path);
}

} // anonymous namespace

double
percentile(const std::vector<double> &sorted, double p)
{
    fatalIf(sorted.empty(), "percentile: empty sample set");
    fatalIf(p < 0 || p > 1, "percentile: p must be in [0, 1]");
    const std::size_t idx = std::min(
        sorted.size() - 1, std::size_t(p * double(sorted.size())));
    return sorted[idx];
}

VariationReport
analyzeVariation(const Netlist &netlist, const CellLibrary &lib,
                 const VariationModel &model)
{
    fatalIf(model.samples == 0, "analyzeVariation: need samples");
    fatalIf(model.lnSigma < 0, "analyzeVariation: negative sigma");
    netlist.validate();
    trace::Span span("variation.analyze", netlist.name());
    const auto mcStart = std::chrono::steady_clock::now();
    const auto order = netlist.levelize();

    VariationReport report;
    {
        const std::vector<double> unit(netlist.gateCount(), 1.0);
        std::vector<Arrival> arrival;
        report.nominalPeriodUs =
            samplePeriod(netlist, lib, order, unit, arrival);
    }

    // Each sample owns an RNG stream seeded from its index, so the
    // period vector — and everything reduced from it below, in
    // index order — is bit-identical for any pool size. Workers
    // claim samples in blocks of 64 (matching the fault MC's lane
    // blocks) and reuse one multiplier and one arrival buffer each,
    // so the hot loop never allocates; per-sample seeds depend only
    // on the sample index, so the block shape cannot change results.
    constexpr std::size_t blockSamples = 64;
    const std::size_t nBlocks =
        (model.samples + blockSamples - 1) / blockSamples;
    std::optional<ThreadPool> local;
    ThreadPool &pool = model.pool ? *model.pool : local.emplace(1);

    struct WorkerScratch
    {
        std::vector<double> mult;
        std::vector<Arrival> arrival;
    };
    std::vector<WorkerScratch> scratch(pool.threadCount());
    std::vector<double> periods(model.samples);
    pool.parallelForWorkers(
        nBlocks, [&](std::size_t b, unsigned worker) {
            WorkerScratch &ws = scratch[worker];
            ws.mult.resize(netlist.gateCount());
            const std::size_t begin = b * blockSamples;
            const std::size_t end = std::min<std::size_t>(
                begin + blockSamples, model.samples);
            for (std::size_t s = begin; s < end; ++s) {
                Rng rng(mixSeed(model.seed, s));
                for (double &m : ws.mult)
                    m = std::exp(model.lnSigma * gaussian(rng));
                periods[s] = samplePeriod(netlist, lib, order,
                                          ws.mult, ws.arrival);
            }
        });

    double sum = 0, sum_sq = 0;
    for (double period : periods) {
        sum += period;
        sum_sq += period * period;
    }

    std::sort(periods.begin(), periods.end());
    const double n = double(model.samples);
    report.meanPeriodUs = sum / n;
    report.stdDevUs = std::sqrt(
        std::max(0.0, sum_sq / n -
                          report.meanPeriodUs * report.meanPeriodUs));
    report.p50Us = percentile(periods, 0.50);
    report.p95Us = percentile(periods, 0.95);
    report.p99Us = percentile(periods, 0.99);
    report.worstUs = periods.back();

    metrics::counter("variation.samples").add(model.samples);
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - mcStart)
            .count();
    if (seconds > 0)
        metrics::gauge("variation.samples_per_s")
            .set(double(model.samples) / seconds);
    return report;
}

} // namespace printed
