/**
 * @file
 * Reproduces Figure 7: fmax, area, and power of every TP-ISA core
 * configuration pP_D_B (P in {1,2,3}, D in {4,8,16,32}, B in
 * {2,4}), each synthesized to gates and characterized in both
 * technologies. Area and power are split into combinational (C)
 * and register (R) shares, as in the figure's stacked bars.
 *
 * Options:
 *   --threads N        size of the one pool the sweep and the yield
 *                      leg run on (default 1, 0 = hardware
 *                      concurrency; results are bit-identical for
 *                      every N)
 *   --yield-trials N   when > 0, also run the functional-yield
 *                      Monte Carlo (N trials, 64-lane batch engine)
 *                      on every configuration, cross-check the
 *                      first one against the scalar reference
 *                      engine, and report the measured speedup
 *   --json PATH   machine-readable report with per-point results,
 *                 wall-clock timing, and synthesis-cache statistics
 */

#include <iostream>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "dse/sweep.hh"
#include "legacy/cores.hh"
#include "synth/cache.hh"

int
main(int argc, char **argv)
{
    printed::bench::initObservability(argc, argv);
    using namespace printed;
    const std::string jsonPath = bench::jsonPathFromArgs(argc, argv);
    const auto threads =
        bench::uintFromArgs<unsigned>(argc, argv, "threads", 1);
    ThreadPool pool(threads);
    const auto yieldTrials =
        bench::uintFromArgs<unsigned>(argc, argv, "yield-trials", 0);
    bench::JsonReport jr("bench_fig7_design_space");

    bench::banner("Figure 7",
                  "TP-ISA design space: fmax / area / power per "
                  "pP_D_B core (both technologies)");

    SweepOptions opts;
    opts.pool = &pool;
    const bench::WallTimer timer;
    const auto points = sweepDesignSpace(opts);
    const double sweepMs = timer.elapsedMs();

    TableWriter t({"Core", "Gates", "Flops", "EGFET fmax Hz",
                   "EGFET area cm^2 (C+R)", "EGFET power mW (C+R)",
                   "CNT fmax Hz", "CNT area cm^2", "CNT power mW"});
    for (const DesignPoint &p : points) {
        t.addRow({
            p.config.label(),
            std::to_string(p.egfet.gateCount()),
            std::to_string(p.egfet.stats.seqGates),
            TableWriter::fixed(p.egfet.fmaxHz(), 2),
            TableWriter::fixed(p.egfet.area.comb_mm2 / 100, 2) +
                "+" +
                TableWriter::fixed(p.egfet.area.seq_mm2 / 100, 2),
            TableWriter::fixed(p.egfet.powerAtFmax.comb_mW, 1) +
                "+" +
                TableWriter::fixed(p.egfet.powerAtFmax.seq_mW, 1),
            TableWriter::fixed(p.cnt.fmaxHz(), 0),
            TableWriter::fixed(p.cnt.areaCm2(), 3),
            TableWriter::fixed(p.cnt.powerMw(), 1),
        });
        jr.add("points",
               {{"core", p.config.label()},
                {"gates", p.egfet.gateCount()},
                {"flops", p.egfet.stats.seqGates},
                {"egfet_fmax_hz", p.egfet.fmaxHz()},
                {"egfet_area_cm2", p.egfet.areaCm2()},
                {"egfet_power_mw", p.egfet.powerMw()},
                {"cnt_fmax_hz", p.cnt.fmaxHz()},
                {"cnt_area_cm2", p.cnt.areaCm2()},
                {"cnt_power_mw", p.cnt.powerMw()}});
    }
    t.print(std::cout);

    // The paper's headline comparisons against Table 4.
    using namespace legacy;
    const auto &l8080 = legacyCoreSpec(LegacyCore::Light8080).egfet;
    double fastest = 0, smallest8 = 1e9, largest = 0;
    for (const auto &p : points) {
        fastest = std::max(fastest, p.egfet.fmaxHz());
        largest = std::max(largest, p.egfet.areaCm2());
        if (p.config.isa.datawidth == 8)
            smallest8 = std::min(smallest8, p.egfet.areaCm2());
    }
    std::cout << "\nHeadlines (paper | measured):\n";
    bench::compare("fastest TP-ISA core vs light8080 fmax (x)",
                   1.38, fastest / l8080.fmaxHz);
    bench::compare("light8080 area / smallest 8-bit TP-ISA (x)",
                   5.2, l8080.areaCm2 / smallest8);
    std::cout << "  largest TP-ISA core "
              << TableWriter::fixed(largest, 2)
              << " cm^2 vs smallest legacy core (light8080) "
              << l8080.areaCm2
              << " cm^2 -> every TP-ISA core is smaller.\n";

    // --- Optional yield leg (--yield-trials N) -------------------
    // Runs the functional-yield Monte Carlo over the whole Figure 7
    // grid on the 64-lane batch engine, then re-runs the first
    // configuration on the scalar golden reference: the two reports
    // must be bit-identical, and their wall-clock ratio is the
    // batch engine's measured speedup at equal thread count.
    if (yieldTrials > 0) {
        FunctionalYieldConfig mc;
        mc.trials = yieldTrials;
        mc.pool = &pool;
        mc.kernels = {Kernel::Mult};

        const bench::WallTimer ytimer;
        const auto ypoints =
            sweepFunctionalYield(figure7Configs(), mc);
        const double yieldMs = ytimer.elapsedMs();

        TableWriter yt({"Core", "analytic yield",
                        "functional yield", "fatal", "masked",
                        "benign"});
        for (const YieldPoint &p : ypoints) {
            yt.addRow({p.config.label(),
                       TableWriter::num(p.report.analyticYield, 4),
                       TableWriter::num(
                           p.report.functionalYield(), 4),
                       std::to_string(p.report.fatalTrials),
                       std::to_string(p.report.maskedTrials),
                       std::to_string(p.report.benignTrials)});
            jr.add("yield",
                   {{"core", p.config.label()},
                    {"analytic_yield", p.report.analyticYield},
                    {"functional_yield",
                     p.report.functionalYield()},
                    {"fatal_trials", p.report.fatalTrials},
                    {"masked_trials", p.report.maskedTrials},
                    {"benign_trials", p.report.benignTrials},
                    {"defect_free_trials",
                     p.report.defectFreeTrials}});
        }
        std::cout << "\nFunctional yield (" << yieldTrials
                  << " trials/config, batch engine):\n";
        yt.print(std::cout);

        const CoreConfig first = figure7Configs().front();
        const auto core = SynthCache::global().core(first);
        const bench::WallTimer btimer;
        const FunctionalYieldReport batchRep =
            measureFunctionalYield(*core, first, mc);
        const double batchMs = btimer.elapsedMs();
        mc.engine = SimEngine::Scalar;
        const bench::WallTimer stimer;
        const FunctionalYieldReport scalarRep =
            measureFunctionalYield(*core, first, mc);
        const double scalarMs = stimer.elapsedMs();
        const bool agree =
            scalarRep.fatalTrials == batchRep.fatalTrials &&
            scalarRep.maskedTrials == batchRep.maskedTrials &&
            scalarRep.benignTrials == batchRep.benignTrials &&
            scalarRep.defectFreeTrials == batchRep.defectFreeTrials;
        std::cout << "Engine check (" << first.label()
                  << "): scalar "
                  << TableWriter::fixed(scalarMs, 0)
                  << " ms vs batch "
                  << TableWriter::fixed(batchMs, 0) << " ms -> "
                  << TableWriter::fixed(scalarMs / batchMs, 1)
                  << "x speedup, reports "
                  << (agree ? "bit-identical" : "DIFFER") << "\n";
        jr.meta("yield_trials", yieldTrials);
        jr.meta("yield_wall_ms", yieldMs);
        jr.meta("yield_scalar_check_wall_ms", scalarMs);
        jr.meta("yield_batch_check_wall_ms", batchMs);
        jr.meta("yield_speedup_vs_scalar", scalarMs / batchMs);
        jr.meta("yield_engines_agree", agree);
        if (!agree) {
            std::cout << "FAIL: batch and scalar engines disagree\n";
            if (!jsonPath.empty())
                jr.writeTo(jsonPath);
            return 1;
        }
    }

    const SynthCacheStats cs = SynthCache::global().stats();
    std::cout << "\nSweep wall clock: "
              << TableWriter::fixed(sweepMs, 1) << " ms on "
              << threads << " thread(s); synthesis cache "
              << cs.netlistHits << " hits / " << cs.netlistMisses
              << " misses.\n";

    if (!jsonPath.empty()) {
        jr.meta("threads", threads);
        jr.meta("wall_ms", sweepMs);
        jr.meta("sweep_points_per_s",
                double(points.size()) / (sweepMs / 1000.0));
        jr.meta("cache_netlist_hits", cs.netlistHits);
        jr.meta("cache_netlist_misses", cs.netlistMisses);
        jr.meta("cache_char_hits", cs.charHits);
        jr.meta("cache_char_misses", cs.charMisses);
        jr.writeTo(jsonPath);
    }
    return 0;
}
