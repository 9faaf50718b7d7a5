#include "fault.hh"

#include <algorithm>
#include <optional>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>

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

/**
 * Everything the fault-free verification reads: the wiring (gate
 * columns, net sources, port bindings), the full core configuration
 * and the kernel list. Equal keys verify identically.
 */
struct VerifyKey
{
    std::vector<Gate> gates;
    std::vector<NetSource> sources;
    std::vector<PortBinding> inputs;
    std::vector<PortBinding> outputs;
    CoreConfig config;
    std::vector<Kernel> kernels;

    bool operator==(const VerifyKey &) const = default;
};

VerifyKey
verifyKey(const Netlist &core, const CoreConfig &config,
          const std::vector<Kernel> &kernels)
{
    VerifyKey key{core.gateArray(), {}, core.inputs(), core.outputs(),
                  config, kernels};
    key.sources.reserve(core.netCount());
    for (NetId n = 0; n < core.netCount(); ++n)
        key.sources.push_back(core.netSource(n));
    return key;
}

/**
 * Process-wide memo of verified per-kernel cycle budgets. The
 * wiring fingerprint (wiringFnv) picks the candidates and full-key
 * equality decides, so a fingerprint collision can never skip a
 * verification. Holds at most `capacity` keys, replacing the oldest;
 * a failed verification is never stored.
 */
class VerifyMemo
{
  public:
    static constexpr std::size_t capacity = 32;

    static VerifyMemo &
    global()
    {
        static VerifyMemo memo;
        return memo;
    }

    /** The budgets verified for `key`, if any. */
    std::optional<std::vector<std::uint64_t>>
    find(std::uint64_t fp, const VerifyKey &key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const Entry &e : entries_)
            if (e.fp == fp && e.key == key)
                return e.budgets;
        return std::nullopt;
    }

    void
    insert(std::uint64_t fp, VerifyKey key,
           std::vector<std::uint64_t> budgets)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const Entry &e : entries_)
            if (e.fp == fp && e.key == key)
                return; // a concurrent caller verified it first
        Entry e{fp, std::move(key), std::move(budgets)};
        if (entries_.size() < capacity) {
            entries_.push_back(std::move(e));
        } else {
            entries_[oldest_] = std::move(e);
            oldest_ = (oldest_ + 1) % capacity;
        }
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.clear();
        oldest_ = 0;
    }

  private:
    struct Entry
    {
        std::uint64_t fp = 0;
        VerifyKey key;
        std::vector<std::uint64_t> budgets;
    };

    std::mutex mu_;
    std::vector<Entry> entries_;
    std::size_t oldest_ = 0; ///< next slot to replace once full
};

/**
 * Instantiate the kernels at the core's native width and verify them
 * on the fault-free netlist; the clean cycle counts set the per-trial
 * budget (a fault that quadruples the runtime has de facto killed
 * the core). A key verified before is not run again.
 */
std::vector<KernelHarness>
verifiedKernels(const Netlist &core, const CoreConfig &config,
                const std::vector<Kernel> &kinds)
{
    static metrics::Counter &hits =
        metrics::counter("fault.golden_verify_hits");
    const unsigned w = config.isa.datawidth;
    std::vector<KernelHarness> kernels;
    for (Kernel kind : kinds) {
        KernelHarness k;
        k.wl = makeWorkload(kind, w, w, config.isa.barCount);
        k.inputs = defaultInputs(kind, w);
        k.golden = goldenOutputs(kind, w, k.inputs);
        kernels.push_back(std::move(k));
    }

    const std::uint64_t fp = wiringFnv(core);
    VerifyKey key = verifyKey(core, config, kinds);
    if (const auto budgets = VerifyMemo::global().find(fp, key)) {
        hits.add(1);
        for (std::size_t i = 0; i < kernels.size(); ++i)
            kernels[i].cycleBudget = (*budgets)[i];
        return kernels;
    }

    trace::Span gv("fault.golden_verify");
    std::vector<std::uint64_t> budgets;
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
        budgets.push_back(k.cycleBudget);
    }
    VerifyMemo::global().insert(fp, std::move(key), std::move(budgets));
    return kernels;
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

/** Lane masks of one block's copies after all kernels. */
struct BlockResult
{
    LaneMask fatal = 0;
    LaneMask activated = 0;
};

/**
 * Run one block of up to 64 defective (trial, replica) copies on the
 * batch engine: lane L carries copies[L]. Each lane settles exactly
 * as runDefectMap() would settle its copy on the scalar engine:
 *
 *   - a lane is fatal the moment a kernel run kills it (illegal
 *     electrical state, wild RAM write — where the scalar engine
 *     throws), fails to halt in budget, or computes wrong results;
 *     a fatal lane skips the remaining kernels, as the scalar loop
 *     breaks early;
 *   - a lane is activated if any fault activation was observed in
 *     any kernel run it took part in.
 */
BlockResult
runCopyBlock(std::vector<std::unique_ptr<BatchCoreCosim>> &sims,
             const std::vector<KernelHarness> &kernels,
             std::span<const DefectMap> copies)
{
    static metrics::Counter &laneRuns =
        metrics::counter("fault.lane_runs");
    static metrics::Counter &lanesUsed =
        metrics::counter("fault.lanes_used");
    static metrics::Counter &lanesLooped =
        metrics::counter("fault.lanes_looped");
    constexpr unsigned L = BatchGateSimulator::laneCount;
    const LaneMask inBlock = copies.size() == L
                                 ? BatchGateSimulator::allLanes
                                 : (LaneMask(1) << copies.size()) - 1;
    BlockResult res;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const LaneMask part = inBlock & ~res.fatal;
        if (!part)
            break;
        BatchCoreCosim &cs = *sims[i];
        BatchGateSimulator &sim = cs.simulator();
        const KernelHarness &k = kernels[i];
        sim.clearFaults();
        for (LaneMask m = part; m; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            sim.setLaneFaults(lane, copies[lane].faults);
        }
        cs.reset();
        sim.retireLanes(~part);
        k.wl.load([&](std::size_t a, std::uint64_t v) {
            cs.setMemAll(a, v);
        }, k.inputs);
        cs.run(k.cycleBudget);
        laneRuns.add(1);
        lanesUsed.add(std::uint64_t(std::popcount(part)));
        lanesLooped.add(
            std::uint64_t(std::popcount(cs.loopedLanes())));
        // Killed (illegal state / wild write), still running at the
        // budget (lost halt) or caught in a loop, which would have
        // run out the budget: fatal, as the scalar engine's catch
        // blocks classify the same copies.
        LaneMask fatalNow =
            part & (cs.killedLanes() | ~cs.haltedLanes());
        for (LaneMask m = part & ~fatalNow; m; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            const auto got = k.wl.read(
                [&](std::size_t a) { return cs.mem(lane, a); });
            if (got != k.golden)
                fatalNow |= LaneMask(1) << lane;
        }
        res.fatal |= fatalNow;
        for (LaneMask m = part; m; m &= m - 1) {
            const unsigned lane = unsigned(std::countr_zero(m));
            if (sim.faultActivations(lane))
                res.activated |= LaneMask(1) << lane;
        }
    }
    return res;
}

/** Per-cell-kind failure probability 1 - y^devices. */
using FailTable = std::array<double, numCellKinds>;

FailTable
failProbabilities(const FaultModel &model)
{
    fatalIf(model.deviceYield < 0 || model.deviceYield > 1,
            "drawDefects: device yield must be in [0, 1]");
    fatalIf(model.bridgeFraction < 0 || model.bridgeFraction > 1,
            "drawDefects: bridge fraction must be in [0, 1]");
    // Shared with the analytic model through cellDeviceCount().
    FailTable failProb{};
    for (std::size_t k = 0; k < numCellKinds; ++k)
        failProb[k] = 1.0 - std::pow(model.deviceYield,
                                     double(cellDeviceCount(
                                         static_cast<CellKind>(k))));
    return failProb;
}

/**
 * The first gate from `from` on that a draw finds defective (one
 * uniform per gate from `rng`, left just past that gate's), or
 * gateCount() if none is. A map is non-empty exactly when this
 * returns a gate, so the batch engine can find a trial's next
 * defective replica without drawing the rest of its map.
 */
GateId
firstFailure(const Netlist &netlist, const FailTable &failProb,
             Rng &rng, GateId from)
{
    for (GateId gi = from; gi < netlist.gateCount(); ++gi)
        if (uniform(rng) <
            failProb[static_cast<std::size_t>(netlist.gate(gi).kind)])
            return gi;
    return GateId(netlist.gateCount());
}

/**
 * Finish a draw whose first defective gate `gi` firstFailure() has
 * just returned from `rng`: the faults go into `out` (cleared first,
 * the fault vector's capacity is reused).
 */
void
drawFrom(const Netlist &netlist, const FaultModel &model,
         const FailTable &failProb, Rng rng, GateId gi,
         DefectMap &out)
{
    out.faults.clear();
    for (; gi < netlist.gateCount();
         gi = firstFailure(netlist, failProb, rng, gi + 1)) {
        const Gate &g = netlist.gate(gi);
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

/**
 * Draw one defect map into `out` (cleared first, the fault vector's
 * capacity is reused) with the failure table already computed.
 */
void
drawWithTable(const Netlist &netlist, const FaultModel &model,
              const FailTable &failProb, std::uint64_t trialSeed,
              DefectMap &out)
{
    Rng rng(trialSeed);
    const GateId first = firstFailure(netlist, failProb, rng, 0);
    out.seed = trialSeed;
    drawFrom(netlist, model, failProb, rng, first, out);
}

} // anonymous namespace

void
goldenVerifyMemoClear()
{
    VerifyMemo::global().clear();
}

std::uint64_t
faultTrialSeed(std::uint64_t seed, std::uint64_t trial,
               std::uint64_t replica)
{
    return mixSeed(mixSeed(seed, trial), replica);
}

DefectMap
drawDefects(const Netlist &netlist, const FaultModel &model,
            std::uint64_t trialSeed)
{
    DefectMap map;
    drawWithTable(netlist, model, failProbabilities(model), trialSeed,
                  map);
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
    // One failure table per call, shared by every draw.
    const FailTable failProb = failProbabilities(cfg.fault);

    trace::Span span("fault.measureFunctionalYield", config.label());

    const std::vector<KernelHarness> kernels =
        verifiedKernels(core, config, cfg.kernels);

    std::optional<ThreadPool> local;
    ThreadPool &pool = cfg.pool ? *cfg.pool : local.emplace(1);

    // Every defective copy is fully determined by (seed, trial,
    // replica), and each trial is classified into its own slot of
    // `outcome`, so the report is bit-identical for any pool size
    // and schedule (the determinism contract of common/parallel.hh).
    // The gate-level cosims are expensive to construct, so each pool
    // worker lazily builds one set and reuses it across the work it
    // claims — sims carry no state between runs (faults are cleared,
    // the core reset), so which worker runs a copy cannot matter.
    //
    // `fault.draws` counts replica maps drawn, one per (trial,
    // replica) the MC reaches: equal for both engines.
    static metrics::Counter &draws = metrics::counter("fault.draws");
    std::vector<TrialClass> outcome(cfg.trials);
    trace::Span mcSpan("fault.mc",
                       std::to_string(cfg.trials) + " trials");
    const auto mcStart = std::chrono::steady_clock::now();
    if (cfg.engine == SimEngine::Batch) {
        // A lane carries one defective (trial, replica) copy, so a
        // replica array fills its blocks with copies of many trials.
        // Round k packs, 64 per block in trial order, the k-th
        // defective replica of every trial that no earlier round
        // found fatal: exactly the copies the scalar loop simulates
        // (it stops a trial at its first fatal copy), packed by the
        // outcomes alone, never by the schedule. Maps are drawn
        // lazily, so the engine draws what the scalar loop draws and
        // holds O(trials) state plus 64 maps per worker: each round
        // opens with every open trial scanning its replicas from its
        // cursor to the first defective gate of the next defective
        // one, and the block worker finishes that draw into its own
        // lane scratch.
        constexpr unsigned L = BatchGateSimulator::laneCount;
        const GateId noCopy = GateId(core.gateCount());
        struct TrialState
        {
            Rng rng;               ///< this round's draw, past `first`
            GateId first = 0;      ///< its first defective gate
            unsigned next = 0;     ///< next replica to draw
            bool defective = false; ///< some replica drew a defect
            bool fatal = false;
            bool activated = false;
        };
        std::vector<TrialState> state(cfg.trials);
        std::vector<std::uint32_t> open(cfg.trials); // replicas left
        for (std::size_t t = 0; t < cfg.trials; ++t)
            open[t] = std::uint32_t(t);

        std::vector<BatchWorker> workers(pool.threadCount());
        std::vector<std::uint32_t> live; // this round's trials
        std::vector<BlockResult> blocks;
        for (std::size_t k = 0; !open.empty(); ++k) {
            trace::Span round(
                "fault.round",
                trace::enabled()
                    ? "round " + std::to_string(k) + ", " +
                          std::to_string(open.size()) + " open trials"
                    : std::string());
            {
                trace::Span draw("fault.draw");
                pool.parallelFor(open.size(), [&](std::size_t i) {
                    const std::size_t t = open[i];
                    TrialState &s = state[t];
                    const unsigned from = s.next;
                    s.first = noCopy;
                    while (s.first == noCopy &&
                           s.next < cfg.replicas) {
                        s.rng = Rng(faultTrialSeed(cfg.fault.seed, t,
                                                   s.next++));
                        s.first =
                            firstFailure(core, failProb, s.rng, 0);
                    }
                    draws.add(s.next - from);
                });
            }
            live.clear();
            for (std::uint32_t t : open)
                if (state[t].first != noCopy)
                    live.push_back(t);
            if (live.empty())
                break;
            blocks.assign((live.size() + L - 1) / L, BlockResult{});
            pool.parallelForWorkers(
                blocks.size(), [&](std::size_t b, unsigned worker) {
                    BatchWorker &w = workers[worker];
                    if (w.sims.empty())
                        w.sims = buildBatchCosims(core, config, kernels);
                    const std::size_t first = b * L;
                    const std::size_t n =
                        std::min<std::size_t>(L, live.size() - first);
                    for (std::size_t i = 0; i < n; ++i) {
                        const std::size_t t = live[first + i];
                        const TrialState &s = state[t];
                        w.maps[i].seed = faultTrialSeed(
                            cfg.fault.seed, t, s.next - 1);
                        drawFrom(core, cfg.fault, failProb, s.rng,
                                 s.first, w.maps[i]);
                    }
                    blocks[b] = runCopyBlock(
                        w.sims, kernels,
                        std::span<const DefectMap>(w.maps.data(), n));
                });
            // Fold each copy's result into its trial, in index order;
            // a trial stays open while it is not fatal and has
            // replicas left.
            open.clear();
            for (std::size_t i = 0; i < live.size(); ++i) {
                const LaneMask bit = LaneMask(1) << (i % L);
                const BlockResult &r = blocks[i / L];
                TrialState &s = state[live[i]];
                s.defective = true;
                s.fatal |= (r.fatal & bit) != 0;
                s.activated |= (r.activated & bit) != 0;
                if (!s.fatal && s.next < cfg.replicas)
                    open.push_back(live[i]);
            }
        }
        for (std::size_t t = 0; t < cfg.trials; ++t) {
            const TrialState &s = state[t];
            outcome[t] = !s.defective ? TrialClass::DefectFree
                         : s.fatal    ? TrialClass::Fatal
                         : s.activated ? TrialClass::Masked
                                       : TrialClass::Benign;
        }
    } else {
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
                unsigned r = 0;
                while (r < cfg.replicas) {
                    drawWithTable(
                        core, cfg.fault, failProb,
                        faultTrialSeed(cfg.fault.seed, t, r++), map);
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
                draws.add(r);
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
