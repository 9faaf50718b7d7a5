#include "fault.hh"

#include <algorithm>
#include <optional>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>

#include "analysis/yield.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/trace.hh"
#include "core/batch_cosim.hh"
#include "core/cosim.hh"
#include "workloads/kernels.hh"

namespace printed
{

namespace
{

/** Uniform double in [0, 1) from 53 random bits. */
double
uniform(Rng &rng)
{
    return double(rng.next() >> 11) / 9007199254740992.0;
}

/** One workload instantiated for the core, with golden results. */
struct KernelHarness
{
    Workload wl;
    std::vector<std::uint64_t> inputs;
    std::vector<std::uint64_t> golden;
    std::uint64_t cycleBudget = 0;
};

/** Per-thread gate-level harnesses (one cosim per kernel). */
std::vector<std::unique_ptr<CoreCosim>>
buildCosims(const Netlist &core, const CoreConfig &config,
            const std::vector<KernelHarness> &kernels)
{
    std::vector<std::unique_ptr<CoreCosim>> sims;
    sims.reserve(kernels.size());
    for (const KernelHarness &k : kernels) {
        sims.push_back(std::make_unique<CoreCosim>(
            core, config, k.wl.program, k.wl.dmemWords));
        if (k.wl.streamAddr >= 0)
            sims.back()->setStreamPort(
                std::size_t(k.wl.streamAddr),
                k.wl.streamInputs(k.inputs));
    }
    return sims;
}

/**
 * Run every kernel on one defective replica.
 * @return Fatal on any wrong result / illegal state / lost halt,
 *         otherwise WorkloadMasked or FullyBenign by whether any
 *         fault activation was observed.
 */
TrialOutcome
runDefectMap(std::vector<std::unique_ptr<CoreCosim>> &sims,
             const std::vector<KernelHarness> &kernels,
             const DefectMap &map)
{
    std::uint64_t activations = 0;
    bool fatal = false;
    for (std::size_t i = 0; i < kernels.size() && !fatal; ++i) {
        CoreCosim &cs = *sims[i];
        const KernelHarness &k = kernels[i];
        cs.simulator().setFaults(map.faults);
        try {
            cs.reset();
            k.wl.load([&](std::size_t a, std::uint64_t v) {
                cs.setMem(a, v);
            }, k.inputs);
            cs.run(k.cycleBudget);
            const auto got = k.wl.read(
                [&](std::size_t a) { return cs.mem(a); });
            fatal = got != k.golden;
        } catch (const SimulationError &) {
            // Defect drove an illegal state (bus contention,
            // S=R=1): the print is electrically broken.
            fatal = true;
        } catch (const FatalError &) {
            // Lost halt (cycle budget) or wild write: broken.
            fatal = true;
        }
        activations += cs.simulator().faultActivations();
        cs.simulator().clearFaults();
    }
    if (fatal)
        return TrialOutcome::Fatal;
    return activations ? TrialOutcome::WorkloadMasked
                       : TrialOutcome::FullyBenign;
}

/** Classification of one full trial (all replicas). */
enum class TrialClass : std::uint8_t
{
    DefectFree,
    Benign,
    Masked,
    Fatal,
};

/** Per-worker 64-lane harnesses (one batch cosim per kernel). */
std::vector<std::unique_ptr<BatchCoreCosim>>
buildBatchCosims(const Netlist &core, const CoreConfig &config,
                 const std::vector<KernelHarness> &kernels)
{
    std::vector<std::unique_ptr<BatchCoreCosim>> sims;
    sims.reserve(kernels.size());
    for (const KernelHarness &k : kernels) {
        sims.push_back(std::make_unique<BatchCoreCosim>(
            core, config, k.wl.program, k.wl.dmemWords));
        if (k.wl.streamAddr >= 0)
            sims.back()->setStreamPort(
                std::size_t(k.wl.streamAddr),
                k.wl.streamInputs(k.inputs));
    }
    return sims;
}

/** Reusable per-worker state of the batch engine. */
struct BatchWorker
{
    std::vector<std::unique_ptr<BatchCoreCosim>> sims;
    /** One defect-map scratch per lane (capacity reused). */
    std::array<DefectMap, BatchGateSimulator::laneCount> maps;
};

/**
 * Run one block of up to 64 trials on the batch engine and classify
 * each into its outcome slot. Lane L carries trial firstTrial + L;
 * per-trial seeds depend only on the trial index, never the lane
 * (the determinism contract), so the classification is identical to
 * running each trial through runDefectMap() on the scalar engine:
 *
 *   - a lane whose map is empty for every replica is DefectFree;
 *   - a lane is Fatal the moment a kernel run kills it (illegal
 *     electrical state, wild RAM write — where the scalar engine
 *     throws), fails to halt in budget, or computes wrong results;
 *     fatal lanes skip the remaining kernels and replicas exactly
 *     as the scalar loops break early;
 *   - otherwise Masked if any fault activation was observed in any
 *     (replica, kernel) run, else Benign.
 */
void
runTrialBlock(BatchWorker &w,
              const std::vector<KernelHarness> &kernels,
              const Netlist &core,
              const FunctionalYieldConfig &cfg,
              std::size_t firstTrial, unsigned nLanes,
              std::vector<TrialClass> &outcome)
{
    constexpr unsigned L = BatchGateSimulator::laneCount;
    const LaneMask inRange =
        nLanes == L ? BatchGateSimulator::allLanes
                    : (LaneMask(1) << nLanes) - 1;
    LaneMask fatal = 0, everActivated = 0, anyDefect = 0;
    for (unsigned r = 0; r < cfg.replicas; ++r) {
        const LaneMask alive = inRange & ~fatal;
        if (!alive)
            break;
        LaneMask participating = 0;
        for (LaneMask m = alive; m; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            drawDefectsInto(core, cfg.fault,
                            faultTrialSeed(cfg.fault.seed,
                                           firstTrial + lane, r),
                            w.maps[lane]);
            if (!w.maps[lane].empty())
                participating |= LaneMask(1) << lane;
        }
        anyDefect |= participating;
        if (!participating)
            continue;
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            const LaneMask part = participating & ~fatal;
            if (!part)
                break;
            BatchCoreCosim &cs = *w.sims[i];
            BatchGateSimulator &sim = cs.simulator();
            const KernelHarness &k = kernels[i];
            sim.clearFaults();
            for (LaneMask m = part; m; m &= m - 1) {
                const unsigned lane =
                    unsigned(std::countr_zero(m));
                sim.setLaneFaults(lane, w.maps[lane].faults);
            }
            cs.reset();
            sim.retireLanes(~part);
            k.wl.load([&](std::size_t a, std::uint64_t v) {
                cs.setMemAll(a, v);
            }, k.inputs);
            cs.run(k.cycleBudget);
            // Killed (illegal state / wild write) or still running
            // at the budget (lost halt): fatal, as the scalar
            // engine's catch blocks classify the same trials.
            LaneMask fatalNow =
                part & (cs.killedLanes() | ~cs.haltedLanes());
            for (LaneMask m = part & ~fatalNow; m; m &= m - 1) {
                const unsigned lane =
                    unsigned(std::countr_zero(m));
                const auto got = k.wl.read([&](std::size_t a) {
                    return cs.mem(lane, a);
                });
                if (got != k.golden)
                    fatalNow |= LaneMask(1) << lane;
            }
            fatal |= fatalNow;
            for (LaneMask m = part; m; m &= m - 1) {
                const unsigned lane =
                    unsigned(std::countr_zero(m));
                if (sim.faultActivations(lane))
                    everActivated |= LaneMask(1) << lane;
            }
        }
    }
    for (unsigned lane = 0; lane < nLanes; ++lane) {
        const LaneMask bit = LaneMask(1) << lane;
        TrialClass c = TrialClass::Benign;
        if (!(anyDefect & bit))
            c = TrialClass::DefectFree;
        else if (fatal & bit)
            c = TrialClass::Fatal;
        else if (everActivated & bit)
            c = TrialClass::Masked;
        outcome[firstTrial + lane] = c;
    }
}

} // anonymous namespace

std::uint64_t
faultTrialSeed(std::uint64_t seed, std::uint64_t trial,
               std::uint64_t replica)
{
    return mixSeed(mixSeed(seed, trial), replica);
}

void
drawDefectsInto(const Netlist &netlist, const FaultModel &model,
                std::uint64_t trialSeed, DefectMap &out)
{
    fatalIf(model.deviceYield < 0 || model.deviceYield > 1,
            "drawDefects: device yield must be in [0, 1]");
    fatalIf(model.bridgeFraction < 0 || model.bridgeFraction > 1,
            "drawDefects: bridge fraction must be in [0, 1]");

    // Per-cell-kind failure probability 1 - y^devices, shared with
    // the analytic model through cellDeviceCount().
    std::array<double, numCellKinds> failProb{};
    for (std::size_t k = 0; k < numCellKinds; ++k)
        failProb[k] = 1.0 - std::pow(model.deviceYield,
                                     double(cellDeviceCount(
                                         static_cast<CellKind>(k))));

    out.seed = trialSeed;
    out.faults.clear();
    Rng rng(trialSeed);
    for (GateId gi = 0; gi < netlist.gateCount(); ++gi) {
        const Gate &g = netlist.gate(gi);
        if (uniform(rng) >=
            failProb[static_cast<std::size_t>(g.kind)])
            continue;
        InjectedFault f;
        f.gate = gi;
        const bool canBridge = !cellIsSequential(g.kind) &&
                               g.kind != CellKind::TSBUFX1;
        if (canBridge && uniform(rng) < model.bridgeFraction) {
            f.kind = FaultKind::BridgeInput;
            f.bridge = (g.in1 != invalidNet && rng.flip()) ? g.in1
                                                           : g.in0;
        } else {
            f.kind = rng.flip() ? FaultKind::StuckAt1
                                : FaultKind::StuckAt0;
        }
        out.faults.push_back(f);
    }
}

DefectMap
drawDefects(const Netlist &netlist, const FaultModel &model,
            std::uint64_t trialSeed)
{
    DefectMap map;
    drawDefectsInto(netlist, model, trialSeed, map);
    return map;
}

FunctionalYieldReport
measureFunctionalYield(const Netlist &core, const CoreConfig &config,
                       const FunctionalYieldConfig &cfg)
{
    fatalIf(cfg.trials == 0, "measureFunctionalYield: need trials");
    fatalIf(cfg.replicas == 0,
            "measureFunctionalYield: need at least one replica");
    fatalIf(cfg.kernels.empty(),
            "measureFunctionalYield: need at least one kernel");

    trace::Span span("fault.measureFunctionalYield", config.label());

    // Instantiate the kernels at the core's native width and verify
    // them on the fault-free netlist; the clean cycle counts set
    // the per-trial budget (a fault that quadruples the runtime has
    // de facto killed the core).
    const unsigned w = config.isa.datawidth;
    std::vector<KernelHarness> kernels;
    for (Kernel kind : cfg.kernels) {
        KernelHarness k;
        k.wl = makeWorkload(kind, w, w, config.isa.barCount);
        k.inputs = defaultInputs(kind, w);
        k.golden = goldenOutputs(kind, w, k.inputs);
        kernels.push_back(std::move(k));
    }
    {
        trace::Span gv("fault.golden_verify");
        auto sims = buildCosims(core, config, kernels);
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            KernelHarness &k = kernels[i];
            CoreCosim &cs = *sims[i];
            cs.reset();
            k.wl.load([&](std::size_t a, std::uint64_t v) {
                cs.setMem(a, v);
            }, k.inputs);
            const std::uint64_t cycles = cs.run();
            const auto got = k.wl.read(
                [&](std::size_t a) { return cs.mem(a); });
            if (got != k.golden)
                fatal("measureFunctionalYield: fault-free core fails "
                      "workload " + k.wl.program.name);
            k.cycleBudget = 4 * cycles + 64;
        }
    }

    unsigned threads = cfg.threads ? cfg.threads
                                   : ThreadPool::defaultThreadCount();

    // Each trial is fully determined by (seed, trial, replica) and
    // classified into its own slot of `outcome`, so the report is
    // bit-identical for any thread count and schedule (the
    // determinism contract of common/parallel.hh). The gate-level
    // cosims are expensive to construct, so each pool worker lazily
    // builds one set and reuses it across the work it claims — sims
    // carry no state between trials (faults are cleared, the core
    // reset), so which worker runs a trial cannot matter.
    std::vector<TrialClass> outcome(cfg.trials);
    trace::Span mcSpan("fault.mc",
                       std::to_string(cfg.trials) + " trials");
    const auto mcStart = std::chrono::steady_clock::now();
    if (cfg.engine == SimEngine::Batch) {
        // Workers claim trials in blocks of 64: lane L of block b
        // carries trial 64*b + L, so the trial -> seed mapping (and
        // with it every defect map) is byte-for-byte the scalar
        // engine's.
        constexpr unsigned L = BatchGateSimulator::laneCount;
        const std::size_t nBlocks = (cfg.trials + L - 1) / L;
        threads = unsigned(
            std::min<std::size_t>(threads, nBlocks));
        std::optional<ThreadPool> owned;
        if (!cfg.pool)
            owned.emplace(threads);
        ThreadPool &pool = cfg.pool ? *cfg.pool : *owned;
        std::vector<BatchWorker> workers(pool.threadCount());
        pool.parallelForWorkers(
            nBlocks, [&](std::size_t b, unsigned worker) {
                BatchWorker &w = workers[worker];
                if (w.sims.empty())
                    w.sims =
                        buildBatchCosims(core, config, kernels);
                const unsigned nLanes =
                    unsigned(std::min<std::size_t>(
                        L, cfg.trials - b * L));
                runTrialBlock(w, kernels, core, cfg, b * L,
                              nLanes, outcome);
            });
    } else {
        threads = std::min(threads, cfg.trials);
        std::optional<ThreadPool> owned;
        if (!cfg.pool)
            owned.emplace(threads);
        ThreadPool &pool = cfg.pool ? *cfg.pool : *owned;
        std::vector<std::vector<std::unique_ptr<CoreCosim>>>
            workerSims(pool.threadCount());
        std::vector<DefectMap> workerMap(pool.threadCount());
        pool.parallelForWorkers(
            cfg.trials, [&](std::size_t t, unsigned worker) {
                auto &sims = workerSims[worker];
                if (sims.empty())
                    sims = buildCosims(core, config, kernels);
                DefectMap &map = workerMap[worker];
                TrialOutcome out = TrialOutcome::FullyBenign;
                bool anyDefect = false;
                for (unsigned r = 0; r < cfg.replicas; ++r) {
                    drawDefectsInto(
                        core, cfg.fault,
                        faultTrialSeed(cfg.fault.seed, t, r), map);
                    if (map.empty())
                        continue;
                    anyDefect = true;
                    const TrialOutcome o =
                        runDefectMap(sims, kernels, map);
                    if (o == TrialOutcome::Fatal) {
                        out = TrialOutcome::Fatal;
                        break;
                    }
                    if (o == TrialOutcome::WorkloadMasked)
                        out = TrialOutcome::WorkloadMasked;
                }
                if (!anyDefect)
                    outcome[t] = TrialClass::DefectFree;
                else if (out == TrialOutcome::Fatal)
                    outcome[t] = TrialClass::Fatal;
                else if (out == TrialOutcome::WorkloadMasked)
                    outcome[t] = TrialClass::Masked;
                else
                    outcome[t] = TrialClass::Benign;
            });
    }

    const double mcSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - mcStart)
            .count();

    FunctionalYieldReport report;
    report.trials = cfg.trials;
    for (TrialClass c : outcome) {
        switch (c) {
          case TrialClass::Fatal:      ++report.fatalTrials; break;
          case TrialClass::Masked:     ++report.maskedTrials; break;
          case TrialClass::Benign:     ++report.benignTrials; break;
          case TrialClass::DefectFree: ++report.defectFreeTrials;
            break;
        }
    }

    // Trial/outcome counters are deterministic across thread
    // counts; the trials/s gauge is wall-clock (excluded from the
    // determinism comparisons).
    metrics::counter("fault.trials").add(report.trials);
    metrics::counter("fault.trials_fatal").add(report.fatalTrials);
    metrics::counter("fault.trials_masked").add(report.maskedTrials);
    metrics::counter("fault.trials_benign").add(report.benignTrials);
    metrics::counter("fault.trials_defect_free")
        .add(report.defectFreeTrials);
    if (mcSeconds > 0)
        metrics::gauge("fault.mc.trials_per_s")
            .set(double(cfg.trials) / mcSeconds);
    report.devicesPerReplica = deviceCount(core);
    report.replicas = cfg.replicas;
    report.analyticYield =
        yieldForDevices(report.devicesPerReplica * cfg.replicas,
                        {cfg.fault.deviceYield, 1.0})
            .yield;
    return report;
}

} // namespace printed
