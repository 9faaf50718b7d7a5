/**
 * @file
 * Google-benchmark microbenchmarks of the toolchain itself:
 * synthesis (core generation + optimization), static timing,
 * gate-level simulation, the assembler, the instruction-set
 * simulator, the parallel execution layer, and the synthesis
 * cache. These guard the usability of the flow (a full
 * design-space sweep runs hundreds of synthesis+analysis passes).
 *
 * Options: --threads N sizes the pool the parallel-layer, sweep and
 * variation benchmarks run on (default 1; stripped before
 * google-benchmark parses the remaining flags). Machine-readable
 * timing comes from google-benchmark itself, e.g.
 * --benchmark_format=json or --benchmark_out=BENCH_micro.json.
 *
 * --json PATH switches to a standalone scalar-vs-batch simulator
 * comparison (no google-benchmark): raw gate-level settle
 * throughput and Monte-Carlo fault-trial throughput of both
 * engines on the p1_8_2 core, with a hard agreement check on the
 * yield numbers (exit 1 on mismatch). CI smoke-runs this as
 * BENCH_sim.json.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "analysis/characterize.hh"
#include "analysis/fault.hh"
#include "analysis/variation.hh"
#include "arch/machine.hh"
#include "bench_util.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/generator.hh"
#include "dse/sweep.hh"
#include "isa/assembler.hh"
#include "sim/batch_simulator.hh"
#include "sim/simulator.hh"
#include "synth/cache.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace printed;

/** Worker count for the parallel benchmarks (--threads N). */
unsigned gThreads = 1;

void
BM_BuildCore(benchmark::State &state)
{
    const CoreConfig cfg =
        CoreConfig::standard(1, unsigned(state.range(0)), 2);
    for (auto _ : state) {
        Netlist nl = buildCore(cfg);
        benchmark::DoNotOptimize(nl.gateCount());
    }
}
BENCHMARK(BM_BuildCore)->Arg(8)->Arg(32);

void
BM_Characterize(benchmark::State &state)
{
    const Netlist nl = buildCore(CoreConfig::standard(1, 8, 2));
    for (auto _ : state) {
        const Characterization ch = characterize(nl, egfetLibrary());
        benchmark::DoNotOptimize(ch.fmaxHz());
    }
}
BENCHMARK(BM_Characterize);

void
BM_StaticTiming(benchmark::State &state)
{
    const Netlist nl = buildCore(CoreConfig::standard(1, 32, 2));
    for (auto _ : state) {
        const TimingReport t = analyzeTiming(nl, egfetLibrary());
        benchmark::DoNotOptimize(t.fmaxHz);
    }
}
BENCHMARK(BM_StaticTiming);

void
BM_GateSimCycle(benchmark::State &state)
{
    const Netlist nl = buildCore(CoreConfig::standard(1, 8, 2));
    GateSimulator sim(nl);
    for (auto _ : state)
        sim.cycle();
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_GateSimCycle);

void
BM_BatchGateSimCycle(benchmark::State &state)
{
    // One batch cycle advances 64 independent trials; items = lane
    // cycles, so items/s is directly comparable to BM_GateSimCycle.
    const Netlist nl = buildCore(CoreConfig::standard(1, 8, 2));
    BatchGateSimulator sim(nl);
    for (auto _ : state)
        sim.cycle();
    state.SetItemsProcessed(std::int64_t(
        state.iterations() * BatchGateSimulator::laneCount));
}
BENCHMARK(BM_BatchGateSimCycle);

void
BM_Assembler(benchmark::State &state)
{
    const std::string src = R"(
        STORE [0], #5
        loop:
            ADD [0], [1]
            ADC [2], [3]
            SUB [4], [5]
            BRN loop, Z
        halt: BRN halt, #0
    )";
    const IsaConfig cfg;
    for (auto _ : state) {
        const Program p = assemble(src, cfg);
        benchmark::DoNotOptimize(p.size());
    }
}
BENCHMARK(BM_Assembler);

void
BM_IssMultIteration(benchmark::State &state)
{
    const Workload wl = makeWorkload(Kernel::Mult, 8, 8);
    const auto inputs = defaultInputs(Kernel::Mult, 8);
    for (auto _ : state) {
        TpIsaMachine m(wl.program, wl.dmemWords);
        wl.load([&](std::size_t a, std::uint64_t v) {
            m.setMem(a, v);
        }, inputs);
        m.run();
        benchmark::DoNotOptimize(m.stats().instructions);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_IssMultIteration);

void
BM_ParallelForOverhead(benchmark::State &state)
{
    ThreadPool pool(gThreads);
    std::vector<std::uint64_t> out(1024);
    for (auto _ : state) {
        pool.parallelFor(out.size(), [&](std::size_t i) {
            out[i] = mixSeed(0xABCD, i);
        });
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        std::int64_t(state.iterations() * out.size()));
}
BENCHMARK(BM_ParallelForOverhead);

void
BM_SweepDesignSpace(benchmark::State &state)
{
    // Cold sweep: every iteration re-synthesizes all 24 Figure 7
    // points (the cache is cleared), spread over --threads workers.
    ThreadPool pool(gThreads);
    SweepOptions opts;
    opts.pool = &pool;
    for (auto _ : state) {
        SynthCache::global().clear();
        const auto points = sweepDesignSpace(opts);
        benchmark::DoNotOptimize(points.size());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations() * 24));
}
BENCHMARK(BM_SweepDesignSpace)->Unit(benchmark::kMillisecond);

void
BM_SweepDesignSpaceCached(benchmark::State &state)
{
    // Warm sweep: all 24 points served from the synthesis cache.
    ThreadPool pool(gThreads);
    SweepOptions opts;
    opts.pool = &pool;
    SynthCache::global().clear();
    {
        const auto warmup = sweepDesignSpace(opts);
        benchmark::DoNotOptimize(warmup.size());
    }
    for (auto _ : state) {
        const auto points = sweepDesignSpace(opts);
        benchmark::DoNotOptimize(points.size());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations() * 24));
}
BENCHMARK(BM_SweepDesignSpaceCached)->Unit(benchmark::kMillisecond);

void
BM_VariationMc(benchmark::State &state)
{
    const std::shared_ptr<const Netlist> nl =
        SynthCache::global().core(CoreConfig::standard(1, 8, 2));
    ThreadPool pool(gThreads);
    VariationModel model;
    model.samples = 32;
    model.pool = &pool;
    for (auto _ : state) {
        const VariationReport r =
            analyzeVariation(*nl, egfetLibrary(), model);
        benchmark::DoNotOptimize(r.p95Us);
    }
    state.SetItemsProcessed(
        std::int64_t(state.iterations() * model.samples));
}
BENCHMARK(BM_VariationMc)->Unit(benchmark::kMillisecond);

/**
 * The --json mode: time the scalar and 64-lane batch engines on the
 * same work — raw settle throughput (gate·cycles/s) and the
 * functional-yield Monte Carlo (trials/s) on the paper's p1_8_2
 * core at one thread each — and assert that both engines report
 * identical yield numbers.
 * @return 0 when the engines agree, 1 otherwise
 */
int
runSimComparison(const std::string &json_path)
{
    using bench::JsonReport;
    using bench::WallTimer;

    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist nl = buildCore(cfg);
    const double gates = double(nl.gateCount());

    // Raw settle throughput. The batch engine advances 64 trials
    // per pass, so its gate·cycles/s carry a 64x lane factor.
    const unsigned simCycles = 2000;
    GateSimulator ssim(nl);
    WallTimer st;
    for (unsigned i = 0; i < simCycles; ++i)
        ssim.cycle();
    const double scalarSimMs = st.elapsedMs();
    BatchGateSimulator bsim(nl);
    WallTimer bt;
    for (unsigned i = 0; i < simCycles; ++i)
        bsim.cycle();
    const double batchSimMs = bt.elapsedMs();
    const double scalarGcps =
        gates * simCycles / (scalarSimMs / 1e3);
    const double batchGcps = gates * simCycles *
                             BatchGateSimulator::laneCount /
                             (batchSimMs / 1e3);

    // Monte-Carlo fault-trial throughput at equal thread count.
    FunctionalYieldConfig mc;
    mc.fault.deviceYield = 0.999; // nearly every trial defective
    mc.fault.seed = 3;
    mc.trials = 256;
    mc.kernels = {Kernel::Mult};

    // The fault-free verification is memoized per process: forget it
    // before each timed MC so both engines' times include it.
    mc.engine = SimEngine::Scalar;
    goldenVerifyMemoClear();
    WallTimer smc;
    const FunctionalYieldReport scalarRep =
        measureFunctionalYield(nl, cfg, mc);
    const double scalarMcMs = smc.elapsedMs();

    mc.engine = SimEngine::Batch;
    goldenVerifyMemoClear();
    WallTimer bmc;
    const FunctionalYieldReport batchRep =
        measureFunctionalYield(nl, cfg, mc);
    const double batchMcMs = bmc.elapsedMs();

    const bool agree =
        scalarRep.fatalTrials == batchRep.fatalTrials &&
        scalarRep.maskedTrials == batchRep.maskedTrials &&
        scalarRep.benignTrials == batchRep.benignTrials &&
        scalarRep.defectFreeTrials == batchRep.defectFreeTrials;
    const double mcSpeedup = scalarMcMs / batchMcMs;

    std::printf("sim engines on p1_8_2 (%u gates):\n",
                unsigned(nl.gateCount()));
    std::printf("  settle  scalar %.2f Mgc/s   batch %.2f Mgc/s "
                "(%.1fx)\n",
                scalarGcps / 1e6, batchGcps / 1e6,
                batchGcps / scalarGcps);
    std::printf("  MC      scalar %.1f trials/s   batch %.1f "
                "trials/s (%.1fx)\n",
                mc.trials / (scalarMcMs / 1e3),
                mc.trials / (batchMcMs / 1e3), mcSpeedup);
    std::printf("  engines_agree: %s (functional yield %.4f vs "
                "%.4f)\n",
                agree ? "yes" : "NO",
                scalarRep.functionalYield(),
                batchRep.functionalYield());

    JsonReport report("sim_engines");
    report.meta("design", "p1_8_2");
    report.meta("gates", std::uint64_t(nl.gateCount()));
    report.meta("sim_cycles", simCycles);
    report.meta("mc_trials", mc.trials);
    report.meta("mc_threads", 1); // no pool: the calling thread
    report.meta("sim_speedup_vs_scalar", batchGcps / scalarGcps);
    report.meta("mc_speedup_vs_scalar", mcSpeedup);
    report.meta("engines_agree", agree);
    report.add("engines",
               {{"engine", "scalar"},
                {"gate_cycles_per_s", scalarGcps},
                {"mc_trials_per_s",
                 mc.trials / (scalarMcMs / 1e3)},
                {"functional_yield",
                 scalarRep.functionalYield()},
                {"fatal_trials", scalarRep.fatalTrials},
                {"masked_trials", scalarRep.maskedTrials},
                {"benign_trials", scalarRep.benignTrials},
                {"defect_free_trials",
                 scalarRep.defectFreeTrials}});
    report.add("engines",
               {{"engine", "batch"},
                {"gate_cycles_per_s", batchGcps},
                {"mc_trials_per_s", mc.trials / (batchMcMs / 1e3)},
                {"functional_yield", batchRep.functionalYield()},
                {"fatal_trials", batchRep.fatalTrials},
                {"masked_trials", batchRep.maskedTrials},
                {"benign_trials", batchRep.benignTrials},
                {"defect_free_trials",
                 batchRep.defectFreeTrials}});
    report.writeTo(json_path);
    return agree ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    printed::bench::initObservability(argc, argv);

    // --json [PATH]: standalone engine comparison, no
    // google-benchmark. A bare --json (e.g. "--json --trace-out
    // trace.json") writes the default report name.
    const std::string json =
        bench::jsonPathFromArgs(argc, argv, "BENCH_sim.json");
    if (!json.empty())
        return runSimComparison(json);

    // Strip "--threads N" and "--trace-out PATH" (already consumed
    // here and by initObservability) before google-benchmark rejects
    // them as unrecognized flags.
    gThreads = bench::uintFromArgs<unsigned>(argc, argv, "threads", 1);
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if ((std::strcmp(argv[i], "--threads") == 0 ||
             std::strcmp(argv[i], "--trace-out") == 0) &&
            i + 1 < argc) {
            ++i;
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
