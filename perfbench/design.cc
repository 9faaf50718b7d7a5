/**
 * @file
 * The `design` workload: cold design-space exploration, the paper's
 * Figure 7 / Figure 8 / Table 8 flow. Every pass clears the
 * process-wide SynthCache, evaluates the 24 Figure 7 cores plus one
 * seeded opcode-pruned variant of each through sweepConfigs(), and
 * evaluates the Table 8 standard and program-specific EGFET systems
 * through evaluateSystem() / evaluateSpecializedSystem().
 * Elaborate -> optimize -> characterize takes nearly all the time.
 */

#include <bit>
#include <iostream>
#include <memory>
#include <numeric>

#include "analysis/characterize.hh"
#include "arch/machine.hh"
#include "arch/pipeline.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "core/generator.hh"
#include "dse/sweep.hh"
#include "dse/system_eval.hh"
#include "legacy/cores.hh"
#include "mem/ram.hh"
#include "mem/rom.hh"
#include "perfbench.hh"
#include "progspec/analyze.hh"
#include "synth/cache.hh"
#include "synth/opt.hh"
#include "workloads/kernels.hh"

namespace perfbench
{

namespace
{

using namespace printed;

/** Passes per --seconds second: about a second of work on 4 vCPUs. */
constexpr double passesPerSecond = 18;

/** One Table 8 system: a kernel on its standard or PS core. */
struct SystemJob
{
    Workload workload;
    bool specialized = false;
};

struct Inputs
{
    std::vector<CoreConfig> configs;
    std::vector<SystemJob> systems;
};

/**
 * Drop 2 or 3 of the 10 primary opcodes: the Section 7 pruning
 * knob, so the seed picks different cores of similar size.
 */
CoreConfig
pruned(CoreConfig cfg, Rng &rng)
{
    const int drop = 2 + int(rng.below(2));
    unsigned mask = 0x3FF;
    while (std::popcount(0x3FFu & ~mask) < drop)
        mask &= ~(1u << rng.below(10));
    cfg.opcodeMask = mask;
    return cfg;
}

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    in.configs = figure7Configs();
    Rng rng(mixSeed(seed, 0xde5));
    for (std::size_t i = 0, n = in.configs.size(); i < n; ++i)
        in.configs.push_back(pruned(in.configs[i], rng));
    for (const KernelPoint &kp : paperKernelPoints()) {
        const Workload wl =
            makeWorkload(kp.kind, kp.dataWidth, kp.dataWidth);
        in.systems.push_back({wl, false});
        in.systems.push_back({wl, true});
    }
    return in;
}

/** The per-point numbers every pass must reproduce exactly. */
struct PointOut
{
    std::size_t gates = 0;
    double fmax[2] = {}, area[2] = {}, power[2] = {};

    bool operator==(const PointOut &) const = default;
};

struct SystemOut
{
    std::uint64_t cycles = 0, instructions = 0;
    double area = 0, energy = 0, time = 0, cycleSeconds = 0;

    bool operator==(const SystemOut &) const = default;
};

struct PassOut
{
    std::vector<PointOut> points;
    std::vector<SystemOut> systems;
    std::vector<double> egfetFmax, egfetArea; ///< Figure 7 headlines

    bool
    operator==(const PassOut &o) const
    {
        return points == o.points && systems == o.systems;
    }
};

PointOut
pointOut(const DesignPoint &p)
{
    PointOut o;
    o.gates = p.egfet.gateCount();
    const Characterization *ch[2] = {&p.egfet, &p.cnt};
    for (int t = 0; t < 2; ++t) {
        o.fmax[t] = ch[t]->fmaxHz();
        o.area[t] = ch[t]->areaCm2();
        o.power[t] = ch[t]->powerMw();
    }
    return o;
}

SystemOut
systemOut(const SystemEval &e)
{
    return {e.cycles,       e.instructions,  e.areaTotal(),
            e.energyTotal(), e.timeTotal(), e.cycleSeconds};
}

PassOut
collect(const std::vector<DesignPoint> &points,
        const std::vector<SystemEval> &systems)
{
    PassOut out;
    for (const DesignPoint &p : points) {
        out.points.push_back(pointOut(p));
        out.egfetFmax.push_back(p.egfet.fmaxHz());
        out.egfetArea.push_back(p.egfet.areaCm2());
    }
    for (const SystemEval &e : systems)
        out.systems.push_back(systemOut(e));
    return out;
}

/** Untraced pass: the composite public calls. */
PassOut
compositePass(const Inputs &in, ThreadPool &pool)
{
    SweepOptions opts;
    opts.pool = &pool;
    const std::vector<DesignPoint> points = sweepConfigs(in.configs, opts);
    const std::vector<SystemEval> systems =
        pool.parallelMap(in.systems.size(), [&](std::size_t i) {
            const SystemJob &job = in.systems[i];
            if (job.specialized)
                return evaluateSpecializedSystem(job.workload,
                                                 TechKind::EGFET);
            return evaluateSystem(
                job.workload,
                CoreConfig::standard(1, job.workload.coreWidth, 2),
                TechKind::EGFET);
        });
    return collect(points, systems);
}

// ---------------------------------------------------------------
// Traced pass: the composites' public parts, in the same order,
// each under its layer's span.
// ---------------------------------------------------------------

/** buildCore(): elaborate, optimize, validate. */
Netlist
tracedBuildCore(const CoreConfig &config)
{
    Netlist nl = [&] {
        Span s("core.elaborate");
        return elaborateCore(config);
    }();
    {
        Span s("synth.optimize");
        synth::optimize(nl);
    }
    {
        Span s("netlist.validate");
        nl.validate();
    }
    return nl;
}

/** characterize(): validate, stats, area, timing, power at fmax. */
Characterization
tracedCharacterize(const Netlist &nl, const CellLibrary &lib)
{
    Characterization ch;
    {
        Span s("netlist.validate");
        nl.validate();
    }
    ch.label = nl.name();
    ch.tech = lib.tech();
    {
        Span s("netlist.stats");
        ch.stats = computeStats(nl);
    }
    {
        Span s("analysis.area");
        ch.area = analyzeArea(nl, lib);
    }
    {
        Span s("analysis.timing");
        ch.timing = analyzeTiming(nl, lib);
    }
    {
        Span s("analysis.power");
        ch.powerAtFmax = analyzePower(nl, lib, ch.timing.fmaxHz);
    }
    return ch;
}

/** evaluateSystem() for an EGFET SLC-ROM system, from its parts. */
SystemEval
tracedSystem(const Workload &workload, const CoreConfig &config)
{
    SystemEval eval;
    eval.config = config;
    eval.tech = TechKind::EGFET;
    ExecutionStats stats;
    {
        Span s("arch.iss");
        TpIsaMachine machine(workload.program, workload.dmemWords);
        const auto inputs =
            defaultInputs(workload.kind, workload.dataWidth);
        workload.load([&](std::size_t a,
                          std::uint64_t v) { machine.setMem(a, v); },
                      inputs);
        if (workload.streamAddr >= 0)
            machine.setStreamPort(std::size_t(workload.streamAddr),
                                  workload.streamInputs(inputs));
        stats = machine.run();
        eval.instructions = stats.instructions;
        eval.cycles = pipelineCycles(stats, config.stages);
    }
    const CellLibrary &lib = libraryFor(TechKind::EGFET);
    const Netlist netlist = tracedBuildCore(config);
    const Characterization core = tracedCharacterize(netlist, lib);

    double tRom = 0, tRam = 0, romNj = 0, romUw = 0, ramNj = 0,
           ramUw = 0, romMm2 = 0, ramMm2 = 0;
    {
        Span s("mem");
        const CrosspointRom rom(workload.program.size(),
                                config.isa.instructionBits(), 1,
                                TechKind::EGFET);
        const SramRam ram(workload.dmemWords, config.isa.datawidth,
                          TechKind::EGFET);
        tRom = msToSeconds(rom.readDelayMs());
        tRam = msToSeconds(ram.accessDelayMs());
        romNj = rom.readEnergyNj();
        romUw = rom.staticPower_uW();
        romMm2 = rom.areaMm2();
        ramNj = ram.accessEnergyNj();
        ramUw = ram.staticPower_uW();
        ramMm2 = ram.areaMm2();
    }
    const double tCore = usToSeconds(core.timing.periodUs);
    eval.cycleSeconds = tCore + tRom + 2 * tRam;
    const double cycles = double(eval.cycles);
    eval.timeCore = cycles * tCore;
    eval.timeImem = cycles * tRom;
    eval.timeDmem = cycles * 2 * tRam;
    const double totalTime = eval.timeTotal();

    PowerReport corePower;
    {
        Span s("analysis.power");
        corePower = analyzePower(netlist, lib, 1.0 / eval.cycleSeconds);
    }
    const double coreMj = corePower.total_mW * totalTime;
    const double combShare = corePower.total_mW > 0
                                 ? corePower.comb_mW / corePower.total_mW
                                 : 0.0;
    eval.energyComb = coreMj * combShare;
    eval.energyRegs = coreMj * (1.0 - combShare);
    eval.energyImem = cycles * romNj * 1e-6 + romUw * totalTime * 1e-3;
    eval.energyDmem =
        double(stats.memReads + stats.memWrites) * ramNj * 1e-6 +
        ramUw * totalTime * 1e-3;
    eval.areaComb = mm2ToCm2(core.area.comb_mm2);
    eval.areaRegs = mm2ToCm2(core.area.seq_mm2);
    eval.areaImem = mm2ToCm2(romMm2);
    eval.areaDmem = mm2ToCm2(ramMm2);
    return eval;
}

PassOut
tracedPass(const Inputs &in, ThreadPool &pool)
{
    Span pass("pass");
    std::vector<DesignPoint> points(in.configs.size());
    {
        Span s("dse.sweep");
        pool.parallelFor(in.configs.size(), [&](std::size_t i) {
            Span point("dse.point");
            const CoreConfig &config = in.configs[i];
            const Netlist nl = tracedBuildCore(config);
            points[i].config = config;
            points[i].egfet =
                tracedCharacterize(nl, libraryFor(TechKind::EGFET));
            points[i].cnt =
                tracedCharacterize(nl, libraryFor(TechKind::CNT_TFT));
        });
    }
    std::vector<SystemEval> systems(in.systems.size());
    {
        Span s("dse.systems");
        pool.parallelFor(in.systems.size(), [&](std::size_t i) {
            Span system("dse.system_eval");
            const SystemJob &job = in.systems[i];
            CoreConfig config =
                CoreConfig::standard(1, job.workload.coreWidth, 2);
            if (job.specialized) {
                Span s("progspec");
                config = specializedConfig(job.workload.program,
                                           job.workload.dmemWords);
            }
            systems[i] = tracedSystem(job.workload, config);
        });
    }
    return collect(points, systems);
}

/** One run of the timed passes (composite or traced). */
struct Timed
{
    std::vector<double> passMs;
    Counts perPass;
    double busyMs = 0;
};

Timed
timedPasses(const Inputs &in, ThreadPool &pool, const PassOut &ref,
            std::size_t passes, bool traced)
{
    Timed t;
    const double busy0 = poolBusyMs();
    for (std::size_t p = 0; p < passes; ++p) {
        // Clearing frees the last pass's netlists: housekeeping,
        // kept outside the timed window (it also resets the cache's
        // counters, so it precedes the snapshot).
        SynthCache::global().clear();
        const Counts before = counterSnapshot();
        const auto t0 = Clock::now();
        const PassOut out =
            traced ? tracedPass(in, pool) : compositePass(in, pool);
        t.passMs.push_back(msSince(t0));
        const Counts delta = counterDelta(counterSnapshot(), before);
        check(out == ref, std::string(traced ? "traced" : "untraced") +
                              " design pass " + std::to_string(p) +
                              " differs from the reference pass");
        if (p == 0)
            t.perPass = delta;
        else if (!traced)
            checkSameCounts(delta, t.perPass,
                            "design pass " + std::to_string(p));
    }
    t.busyMs = poolBusyMs() - busy0;
    return t;
}

} // namespace

Report
runDesign(const Args &args)
{
    constexpr unsigned threads = 2;
    std::cout << "workload design: cold Figure 7 sweep + pruned cores + "
                 "Table 8 systems, "
              << threads << " pool threads, seed " << args.seed << "\n";

    // Set-up, repeated; the median is setup_s.
    std::vector<double> setupS;
    Inputs in;
    std::unique_ptr<ThreadPool> pool;
    PassOut ref;
    for (int k = 0; k < setupRepeats; ++k) {
        const auto t0 = Clock::now();
        SynthCache::global().clear();
        in = makeInputs(args.seed);
        pool = std::make_unique<ThreadPool>(threads);
        ref = compositePass(in, *pool);
        setupS.push_back(msSince(t0) / 1e3);
    }
    const std::size_t pointsPerPass = in.configs.size() + in.systems.size();
    const std::size_t passes =
        std::max<std::size_t>(3, std::size_t(args.seconds * passesPerSecond));

    const Timed run = timedPasses(in, *pool, ref, passes, false);
    const double timedMs =
        std::accumulate(run.passMs.begin(), run.passMs.end(), 0.0);
    const double rssMb = peakRssMb(); // before the checks below allocate

    // Thread invariance: one pass on a 1-thread pool must give the
    // same outputs and the same counts.
    {
        ThreadPool serial(1);
        SynthCache::global().clear();
        const Counts before = counterSnapshot();
        check(compositePass(in, serial) == ref,
              "1-thread design pass differs from the 2-thread pass");
        checkSameCounts(counterDelta(counterSnapshot(), before),
                        run.perPass, "design 1 vs 2 threads");
    }

    // The model's error against the paper, beside every speed number.
    const auto &l8080 =
        legacy::legacyCoreSpec(legacy::LegacyCore::Light8080).egfet;
    double fastest = 0, smallest8 = 1e30;
    for (std::size_t i = 0; i < 24; ++i) {
        fastest = std::max(fastest, ref.egfetFmax[i]);
        if (in.configs[i].isa.datawidth == 8)
            smallest8 = std::min(smallest8, ref.egfetArea[i]);
    }
    std::cout << "\nFigure 7 headlines (paper | model):\n"
              << "  fastest TP-ISA core / light8080 fmax   1.38x | "
              << fastest / l8080.fmaxHz << "x\n"
              << "  light8080 / smallest 8-bit TP-ISA area  5.2x | "
              << l8080.areaCm2 / smallest8 << "x\n";

    // The rate at the p10 pass time. Every pass does the same work, so
    // a slower one lost time to the machine: other tenants of a shared
    // host slow whole stretches of a run, and its median with them.
    const Summary lat = summarize(run.passMs);
    const double pointsPerS = double(pointsPerPass) / (lat.p10 / 1e3);
    std::cout << "\nEnd to end (" << passes << " passes of "
              << pointsPerPass << " design points):\n"
              << "  design_points_per_s " << pointsPerS << " ("
              << double(pointsPerPass) / (lat.p50 / 1e3)
              << " at the median pass)\n";
    printSummary("pass latency", lat, "ms");
    std::cout << "  setup_s " << median(setupS) << "\n";

    Report r;
    r.attempted = pointsPerPass * (passes + 1);
    if (!args.trace) {
        r.metrics = {{"throughput_per_s", pointsPerS},
                     {"setup_s", median(setupS)},
                     {"peak_rss_mb", rssMb}};
        return r;
    }

    // Traced run: the same passes through the composites' parts.
    ledgerStart();
    const Timed traced = timedPasses(in, *pool, ref, passes, true);
    const Fold fold = ledgerStop();
    r.attempted += pointsPerPass * passes;
    reportFold(fold, double(passes), r.metrics);
    const double tracedMs =
        std::accumulate(traced.passMs.begin(), traced.passMs.end(), 0.0);
    const double overhead = 100.0 * (tracedMs / timedMs - 1);
    std::cout << "  tracing overhead " << overhead
              << " % of the untraced pass time\n";

    reportCounts(run.perPass, r.metrics);
    std::uint64_t tpIsaInsns = 0;
    for (const SystemOut &s : ref.systems)
        tpIsaInsns += s.instructions;
    r.metrics["arch.iss.instructions"] = double(tpIsaInsns);
    r.metrics["trace.overhead"] = overhead;
    r.metrics["parallel.utilization"] =
        100.0 * run.busyMs / (threads * timedMs);
    return r;
}

} // namespace perfbench
