/**
 * @file
 * Gate-level fault injection and functional-yield Monte Carlo.
 *
 * Section 3.1's yield math (analysis/yield.hh) is *pessimistic*: it
 * assumes every defective printed device kills the circuit. In
 * reality many defects land on gates whose exact value never
 * matters - logic that is masked by the workload, redundant after
 * hardening, or simply never observed. This module measures that
 * gap:
 *
 *   1. FaultModel draws per-gate-instance defects (stuck-at-0/1 and
 *      input-output pin bridges) from the same device-yield
 *      parameter the analytic model uses, so "a defect occurred" is
 *      calibrated identically in both.
 *   2. Defect maps are overlaid on a GateSimulator
 *      (GateSimulator::setFaults) without copying the netlist, so
 *      thousands of Monte-Carlo trials per design stay cheap.
 *   3. measureFunctionalYield() runs real TP-ISA workloads
 *      (src/workloads/) on the faulted core and classifies every
 *      defect map as fatal, workload-masked, or fully benign.
 *
 * Determinism contract: every trial's defect map depends only on
 * (model.seed, trial index, replica index) via faultTrialSeed(), and
 * trials run on the deterministic parallel layer
 * (common/parallel.hh) with per-trial result slots, so reports are
 * bit-identical across runs and across thread counts.
 */

#ifndef PRINTED_ANALYSIS_FAULT_HH
#define PRINTED_ANALYSIS_FAULT_HH

#include <cstdint>
#include <vector>

#include "core/config.hh"
#include "netlist/netlist.hh"
#include "sim/simulator.hh"
#include "workloads/golden.hh"

namespace printed
{

class ThreadPool;

/** Defect-draw parameters. */
struct FaultModel
{
    /**
     * Probability that one printed device works (Section 3.1:
     * 90-99% measured for EGFET). A gate with d devices
     * (cellDeviceCount) is defective with 1 - deviceYield^d,
     * exactly the analytic model's per-cell failure probability.
     */
    double deviceYield = 0.9999;

    /**
     * Fraction of combinational-cell defects modeled as
     * input-output pin bridges (adjacent-trace shorts, wired-AND);
     * the rest are stuck-at-0/1 in equal shares. Sequential cells
     * and tri-state buffers always fail as stuck-at.
     */
    double bridgeFraction = 0.2;

    /** Master seed of the Monte Carlo. */
    std::uint64_t seed = 1;
};

/** The defects of one Monte-Carlo trial. */
struct DefectMap
{
    std::uint64_t seed = 0; ///< trial seed the map was drawn from
    std::vector<InjectedFault> faults;

    bool empty() const { return faults.empty(); }
};

/**
 * Per-trial seed derivation: a SplitMix64-style mix of the master
 * seed, trial index, and replica index. This is the determinism
 * contract - trial t of replica r always sees the same defects, no
 * matter which thread runs it.
 */
std::uint64_t faultTrialSeed(std::uint64_t seed, std::uint64_t trial,
                             std::uint64_t replica = 0);

/** Draw a defect map for one netlist from one trial seed. */
DefectMap drawDefects(const Netlist &netlist, const FaultModel &model,
                      std::uint64_t trialSeed);

/** Classification of one defect map against the workloads. */
enum class TrialOutcome
{
    FullyBenign,    ///< no forced value ever differed (or no defect)
    WorkloadMasked, ///< defects activated, results still correct
    Fatal,          ///< wrong results, illegal state, or no halt
};

/** Gate-level engine running the Monte-Carlo trials. */
enum class SimEngine : std::uint8_t
{
    /**
     * 64-lane bit-parallel engine (sim/batch_simulator.hh): each
     * lane carries one defective (trial, replica) copy, packed 64
     * per block round by round, and a block advances through one
     * shared netlist pass. Bit-identical to Scalar for the same seed
     * (tests/test_fault.cc), ~an order of magnitude faster.
     */
    Batch,
    /** One GateSimulator trial at a time: the golden reference. */
    Scalar,
};

/** Functional-yield Monte-Carlo configuration. */
struct FunctionalYieldConfig
{
    FaultModel fault;

    /** Gate-level engine (results do not depend on the choice). */
    SimEngine engine = SimEngine::Batch;

    /** Monte-Carlo trials (each one full defect draw + run). */
    unsigned trials = 1000;

    /**
     * The caller's pool the trials run on; null runs them on the
     * calling thread (a one-thread pool local to the call). Results
     * are identical for every pool (the determinism contract is
     * per-trial, not per-pool).
     */
    ThreadPool *pool = nullptr;

    /**
     * Independent copies of the core per trial. Models a larger
     * design (e.g. a Z80-class gate count) as an array of cores
     * that must all work: defects are drawn per replica, and a
     * trial passes only if every replica passes.
     */
    unsigned replicas = 1;

    /**
     * Workloads run per trial, at the core's native width. Every
     * kernel must produce golden results on the fault-free core
     * (checked up front). crc8 requires a single-cycle core.
     */
    std::vector<Kernel> kernels = {Kernel::Mult};
};

/** Result of one functional-yield Monte Carlo. */
struct FunctionalYieldReport
{
    unsigned trials = 0;
    unsigned fatalTrials = 0;
    unsigned maskedTrials = 0;  ///< defects activated, all correct
    unsigned benignTrials = 0;  ///< defects present, never activated
    unsigned defectFreeTrials = 0; ///< no defect drawn at all

    std::size_t devicesPerReplica = 0;
    unsigned replicas = 1;

    /** Pessimistic analytic bound: deviceYield^(devices*replicas). */
    double analyticYield = 0;

    /** Fraction of trials that computed all workloads correctly. */
    double
    functionalYield() const
    {
        return trials ? 1.0 - double(fatalTrials) / double(trials)
                      : 0.0;
    }

    /** Monte-Carlo estimate of the analytic (defect-free) yield. */
    double
    defectFreeRate() const
    {
        return trials ? double(defectFreeTrials) / double(trials)
                      : 0.0;
    }
};

/**
 * Measure the functional yield of a core netlist under the fault
 * model: run cfg.trials seeded Monte-Carlo trials, each drawing
 * defect maps for cfg.replicas copies of the core and executing
 * cfg.kernels on every defective copy at gate level.
 *
 * The kernels are first verified on the fault-free core, which sets
 * each kernel's cycle budget (fatal() if a kernel fails). Verified
 * budgets are memoized process-wide by everything that run reads —
 * the netlist's gate columns, net sources and port bindings, the
 * full CoreConfig and the kernel list — so a content-equal call
 * skips it (counted in "fault.golden_verify_hits"); a failure is
 * never memoized.
 *
 * @param core a netlist built by buildCore(config) - or a hardened
 *             derivative with identical ports (synth::harden)
 * @param config the core configuration the netlist implements
 */
FunctionalYieldReport
measureFunctionalYield(const Netlist &core, const CoreConfig &config,
                       const FunctionalYieldConfig &cfg);

/**
 * Forget every memoized fault-free verification, so the next call
 * of each key verifies again (tests that compare counters between
 * runs in one process, benches whose timed runs include it).
 */
void goldenVerifyMemoClear();

} // namespace printed

#endif // PRINTED_ANALYSIS_FAULT_HH
