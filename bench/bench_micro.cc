/**
 * @file
 * Scalar-vs-batch simulator comparison: raw gate-level settle
 * throughput and Monte-Carlo fault-trial throughput of both engines
 * on the paper's p1_8_2 core, with a hard agreement check on the
 * yield numbers (exit 1 on mismatch).
 *
 * Options: --json [PATH] writes the report (a bare --json writes
 * BENCH_sim.json; CI smoke-runs it and gates it against
 * bench/baselines/BENCH_sim.json), --trace-out PATH writes a Chrome
 * trace. Layer-by-layer timing of the toolchain is perfbench's job
 * (perfbench/README.md).
 */

#include <cstdio>
#include <string>

#include "analysis/fault.hh"
#include "bench_util.hh"
#include "core/generator.hh"
#include "sim/batch_simulator.hh"
#include "sim/simulator.hh"

namespace
{

using namespace printed;

/**
 * Time the scalar and 64-lane batch engines on the same work — raw
 * settle throughput (gate·cycles/s) and the functional-yield Monte
 * Carlo (trials/s) on the paper's p1_8_2 core at one thread each —
 * and assert that both engines report identical yield numbers. The
 * report goes to `json_path` unless it is empty.
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
    if (!json_path.empty())
        report.writeTo(json_path);
    return agree ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    printed::bench::initObservability(argc, argv);
    // A bare --json (e.g. "--json --trace-out trace.json") writes
    // the default report name.
    return runSimComparison(
        bench::jsonPathFromArgs(argc, argv, "BENCH_sim.json"));
}
