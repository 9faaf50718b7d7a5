/**
 * @file
 * Reproduces Table 4: characterization of the pre-existing cores
 * (openMSP430, Z80, light8080, ZPU_small) in both technologies.
 * Published values are shown next to our statistical-model
 * outputs (area and power re-derived from the cell-mix model
 * through the same engine that characterizes TP-ISA cores).
 *
 * Options:
 *   --threads N   evaluate the core x technology matrix on one
 *                 pool of N threads (default 1, 0 = hardware
 *                 concurrency; output is bit-identical for every N)
 *   --json PATH   machine-readable report with wall-clock timing
 */

#include <iostream>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "legacy/cores.hh"

int
main(int argc, char **argv)
{
    printed::bench::initObservability(argc, argv);
    using namespace printed;
    using namespace printed::legacy;
    const std::string jsonPath = bench::jsonPathFromArgs(argc, argv);
    const auto threads =
        bench::uintFromArgs<unsigned>(argc, argv, "threads", 1);
    ThreadPool pool(threads);
    bench::JsonReport jr("bench_table4_legacy_cores");
    const bench::WallTimer timer;

    bench::banner("Table 4",
                  "Pre-existing CPUs in EGFET@1V / CNT-TFT@3V "
                  "(paper value | our model)");

    // One work item per (core, technology) cell of the table;
    // results land in index-ordered slots, so the table below reads
    // identically for any thread count.
    const std::size_t n = allLegacyCores.size();
    const auto models = pool.parallelMap(2 * n, [&](std::size_t i) {
        const LegacyCore core = allLegacyCores[i / 2];
        const TechKind tech =
            (i % 2) ? TechKind::CNT_TFT : TechKind::EGFET;
        return modelLegacyCore(core, tech);
    });

    TableWriter t({"CPU", "width-ALU", "ISA", "CPI",
                   "Fmax Hz (EG/CNT)", "Gates (EG/CNT)",
                   "Area cm^2 (EG: paper|model / CNT: paper|model)",
                   "Power mW (EG: paper|model / CNT: paper|model)"});

    for (std::size_t c = 0; c < n; ++c) {
        const LegacyCoreSpec &s = legacyCoreSpec(allLegacyCores[c]);
        const auto &eg = models[2 * c];
        const auto &cn = models[2 * c + 1];
        t.addRow({
            s.name,
            std::to_string(s.datawidth) + "-" +
                std::to_string(s.aluWidth),
            s.isaStyle,
            std::to_string(s.cpiMin) + "-" +
                std::to_string(s.cpiMax),
            TableWriter::num(s.egfet.fmaxHz) + " / " +
                TableWriter::num(s.cnt.fmaxHz),
            std::to_string(s.egfet.gateCount) + " / " +
                std::to_string(s.cnt.gateCount),
            TableWriter::fixed(s.egfet.areaCm2, 2) + "|" +
                TableWriter::fixed(eg.area.totalCm2(), 2) + " / " +
                TableWriter::fixed(s.cnt.areaCm2, 2) + "|" +
                TableWriter::fixed(cn.area.totalCm2(), 2),
            TableWriter::fixed(s.egfet.powerMw, 1) + "|" +
                TableWriter::fixed(eg.powerAtFmax.total_mW, 1) +
                " / " + TableWriter::fixed(s.cnt.powerMw, 1) + "|" +
                TableWriter::fixed(cn.powerAtFmax.total_mW, 1),
        });
        jr.add("cores",
               {{"cpu", s.name},
                {"egfet_area_cm2_paper", s.egfet.areaCm2},
                {"egfet_area_cm2_model", eg.area.totalCm2()},
                {"egfet_power_mw_paper", s.egfet.powerMw},
                {"egfet_power_mw_model", eg.powerAtFmax.total_mW},
                {"cnt_area_cm2_paper", s.cnt.areaCm2},
                {"cnt_area_cm2_model", cn.area.totalCm2()},
                {"cnt_power_mw_paper", s.cnt.powerMw},
                {"cnt_power_mw_model", cn.powerAtFmax.total_mW}});
    }
    t.print(std::cout);

    std::cout << "\nCalibrated combinational depths (cells on the "
                 "critical path implied by the published fmax):\n";
    for (std::size_t c = 0; c < n; ++c) {
        std::cout << "  " << legacyCoreSpec(allLegacyCores[c]).name
                  << ": EGFET " << models[2 * c].calibratedDepth
                  << ", CNT-TFT "
                  << models[2 * c + 1].calibratedDepth << "\n";
        jr.add("depths",
               {{"cpu", legacyCoreSpec(allLegacyCores[c]).name},
                {"egfet_depth", models[2 * c].calibratedDepth},
                {"cnt_depth", models[2 * c + 1].calibratedDepth}});
    }

    if (!jsonPath.empty()) {
        jr.meta("threads", threads);
        jr.meta("wall_ms", timer.elapsedMs());
        jr.writeTo(jsonPath);
    }
    return 0;
}
