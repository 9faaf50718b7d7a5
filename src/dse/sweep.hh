/**
 * @file
 * Design-space exploration of TP-ISA cores (paper Section 5.2,
 * Figure 7): sweep pipeline depth x datawidth x BAR count,
 * synthesize every point, and characterize it in both printed
 * technologies.
 *
 * Every design point is independent, so the sweep runs on the
 * deterministic parallel layer (common/parallel.hh): points are
 * evaluated concurrently on the caller's pool and collected by
 * index, making the result vector bit-identical for any pool size.
 * Synthesis and characterization go through the process-wide
 * SynthCache, so a second sweep over the same configs (or a bench
 * re-using a core a test already built) is served from memory.
 */

#ifndef PRINTED_DSE_SWEEP_HH
#define PRINTED_DSE_SWEEP_HH

#include <utility>
#include <vector>

#include "analysis/characterize.hh"
#include "analysis/fault.hh"
#include "core/config.hh"
#include "legacy/batch_iss.hh"
#include "workloads/golden.hh"

namespace printed
{

/** One synthesized + characterized design point. */
struct DesignPoint
{
    CoreConfig config;
    Characterization egfet;
    Characterization cnt;
};

class ThreadPool;

/** Options of a design-space sweep. */
struct SweepOptions
{
    /**
     * The caller's pool the points (or an ISS point's machines) run
     * on; null runs them on the calling thread (a one-thread pool
     * local to the call).
     */
    ThreadPool *pool = nullptr;
};

/** The 24 Figure 7 configurations, in canonical order. */
std::vector<CoreConfig> figure7Configs();

/**
 * The Figure 7 sweep: stages in {1,2,3}, datawidth in
 * {4,8,16,32}, BARs in {2,4} - 24 cores, each actually
 * synthesized to gates and analyzed. Deterministic for any
 * pool size.
 */
std::vector<DesignPoint> sweepDesignSpace(const SweepOptions &opts = {});

/**
 * Evaluate an arbitrary list of configurations in parallel,
 * returning one DesignPoint per config in input order.
 */
std::vector<DesignPoint>
sweepConfigs(const std::vector<CoreConfig> &configs,
             const SweepOptions &opts = {});

/**
 * Synthesize and characterize one configuration (through the
 * global SynthCache).
 */
DesignPoint evaluateDesignPoint(const CoreConfig &config);

/** One configuration's functional-yield Monte Carlo. */
struct YieldPoint
{
    CoreConfig config;
    FunctionalYieldReport report;
};

/**
 * The yield leg of the Figure 7 sweep: run the functional-yield
 * Monte Carlo on every configuration (cores served by the global
 * SynthCache). Configurations are evaluated one after another,
 * each Monte Carlo spreading its trial blocks over mc.pool (a pool
 * runs one job at a time), and every trial's defects depend only on
 * (mc.fault.seed, trial, replica), so the result vector is
 * bit-identical across runs, pool sizes, and engines
 * (SimEngine::Batch vs Scalar).
 */
std::vector<YieldPoint>
sweepFunctionalYield(const std::vector<CoreConfig> &configs,
                     const FunctionalYieldConfig &mc);

/**
 * Spec of a fleet-scale legacy-ISS sweep: run every kernel of the
 * grid on every selected legacy core, M machines per point, on the
 * core's interpreter (legacy/batch_iss.hh). Machine m of a point
 * gets defaultInputs(kernel, width, seed + m).
 */
struct IssSweepSpec
{
    /** Cores to sweep; empty = all four Table 4 cores. */
    std::vector<legacy::LegacyCore> cores;

    /** Kernels to run; empty = {Mult, Div}. */
    std::vector<Kernel> kernels;

    unsigned width = 8;          ///< logical data width
    std::size_t machines = 64;   ///< machines per grid point
    std::uint64_t seed = 1;      ///< base input seed
    std::uint64_t maxSteps = 50'000'000;

    /** The (core, kernel) grid with defaults applied, in order. */
    std::vector<std::pair<legacy::LegacyCore, Kernel>> grid() const;
};

/**
 * One (core, kernel) grid point: aggregate retirement tallies and
 * an order-sensitive FNV-1a checksum of every machine's outputs and
 * status. The point is a pure function of the spec: the pool size
 * never changes any field (Golden.LegacyIssCounts pins the
 * values, the IssBatch tests the thread-count identity).
 */
struct IssSweepPoint
{
    legacy::LegacyCore core = legacy::LegacyCore::Light8080;
    Kernel kernel = Kernel::Mult;
    unsigned width = 8;
    std::size_t machines = 0;
    std::size_t halted = 0;
    std::size_t outOfBudget = 0;
    std::size_t killed = 0;
    std::uint64_t instructions = 0; ///< total over all machines
    std::uint64_t cycles = 0;       ///< total over all machines
    std::size_t codeBytes = 0;
    std::uint64_t outputsFnv = 0;
};

/** Evaluate one grid point (machines run over opts.pool). */
IssSweepPoint evaluateIssPoint(legacy::LegacyCore core, Kernel kernel,
                               const IssSweepSpec &spec,
                               const SweepOptions &opts = {});

/**
 * The full ISS sweep: one IssSweepPoint per grid entry, in grid
 * order. Points run one after another; each point's machines are
 * distributed over opts.pool in 64-machine chunks.
 */
std::vector<IssSweepPoint>
sweepLegacyIss(const IssSweepSpec &spec,
               const SweepOptions &opts = {});

} // namespace printed

#endif // PRINTED_DSE_SWEEP_HH
