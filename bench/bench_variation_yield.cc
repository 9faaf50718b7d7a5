/**
 * @file
 * Extension study: process variation and manufacturing yield of
 * printed cores.
 *
 * Section 3.1 reports EGFET device yields of 90-99% and the EGFET
 * modeling literature the paper builds on centers on printed
 * process variation. This bench quantifies both effects across the
 * design space: the timing guard-band Monte-Carlo variation
 * demands, and the print-until-it-works cost that yields imply -
 * the clearest quantitative argument for low-gate-count printed
 * cores beyond area and power.
 *
 * Options:
 *   --json PATH    machine-readable report (incl. wall-clock time)
 *   --threads N    size of the one pool the variation Monte Carlo
 *                  runs on (default 1, 0 = hardware concurrency;
 *                  results identical for every N)
 *   --samples N    variation samples per core (default 200; smoke
 *                  runs in CI use a small count)
 */

#include <iostream>

#include "analysis/characterize.hh"
#include "analysis/variation.hh"
#include "analysis/yield.hh"
#include "bench_util.hh"
#include "common/parallel.hh"
#include "core/generator.hh"
#include "legacy/cores.hh"
#include "synth/cache.hh"

int
main(int argc, char **argv)
{
    printed::bench::initObservability(argc, argv);
    using namespace printed;
    const std::string jsonPath = bench::jsonPathFromArgs(argc, argv);
    const unsigned threads =
        bench::uintFromArgs<unsigned>(argc, argv, "threads", 1);
    ThreadPool pool(threads);
    const unsigned samples =
        bench::uintFromArgs<unsigned>(argc, argv, "samples", 200);
    bench::JsonReport jr("bench_variation_yield");
    const bench::WallTimer timer;

    bench::banner("Extension: variation & yield",
                  "Monte-Carlo timing guard-bands and print yield "
                  "of EGFET cores");

    VariationModel model;
    model.pool = &pool;
    model.samples = samples;

    std::cout << "Timing under process variation (lognormal cell "
                 "delays, sigma 25%, "
              << samples << " samples):\n";
    TableWriter t({"Core", "nominal fmax Hz", "p95 fmax Hz",
                   "guard-band", "sigma/mean"});
    for (unsigned w : {4u, 8u, 16u, 32u}) {
        const CoreConfig cfg = CoreConfig::standard(1, w, 2);
        const std::shared_ptr<const Netlist> core =
            SynthCache::global().core(cfg);
        const Netlist &nl = *core;
        const VariationReport r =
            analyzeVariation(nl, egfetLibrary(), model);
        t.addRow({cfg.label(),
                  TableWriter::fixed(1e6 / r.nominalPeriodUs, 2),
                  TableWriter::fixed(r.guardedFmaxHz(), 2),
                  TableWriter::fixed(r.guardBand(), 2) + "x",
                  TableWriter::fixed(
                      100 * r.stdDevUs / r.meanPeriodUs, 1) + "%"});
        jr.add("variation",
               {{"core", cfg.label()},
                {"nominal_fmax_hz", 1e6 / r.nominalPeriodUs},
                {"p95_fmax_hz", r.guardedFmaxHz()},
                {"guard_band", r.guardBand()},
                {"sigma_over_mean",
                 r.stdDevUs / r.meanPeriodUs}});
    }
    t.print(std::cout);

    std::cout << "\nPrint yield (working prints per attempt) at "
                 "the paper's measured EGFET device yields:\n";
    TableWriter y({"Design", "Devices", "yield @99%",
                   "yield @99.9%", "yield @99.99%",
                   "prints/good @99.99%"});
    auto add_design = [&](const std::string &name,
                          std::size_t devices) {
        const auto y99 = yieldForDevices(devices, {0.99, 1.0});
        const auto y999 = yieldForDevices(devices, {0.999, 1.0});
        const auto y9999 = yieldForDevices(devices, {0.9999, 1.0});
        y.addRow({name, std::to_string(devices),
                  TableWriter::num(y99.yield, 3),
                  TableWriter::num(y999.yield, 3),
                  TableWriter::num(y9999.yield, 3),
                  y9999.yield > 1e-6
                      ? TableWriter::fixed(y9999.printsPerGood, 1)
                      : std::string(">1e6")});
        jr.add("yield",
               {{"design", name},
                {"devices", devices},
                {"yield_at_99", y99.yield},
                {"yield_at_999", y999.yield},
                {"yield_at_9999", y9999.yield},
                {"prints_per_good_at_9999", y9999.printsPerGood}});
    };

    for (unsigned w : {4u, 8u, 32u}) {
        const std::shared_ptr<const Netlist> nl =
            SynthCache::global().core(CoreConfig::standard(1, w, 2));
        add_design("TP-ISA p1_" + std::to_string(w) + "_2",
                   deviceCount(*nl));
    }
    using namespace legacy;
    for (LegacyCore core :
         {LegacyCore::Light8080, LegacyCore::OpenMsp430}) {
        const auto &spec = legacyCoreSpec(core);
        // Legacy device counts from the statistical cell mix: ~2
        // devices per cell on average.
        add_design(spec.name, spec.egfet.gateCount * 2);
    }
    y.print(std::cout);

    std::cout
        << "\nTakeaway: even at the top of the paper's measured "
           "90-99% device-yield range, core-scale circuits need "
           "print-until-it-works manufacturing; at 99.99% the "
           "TP-ISA cores become practical (~1.1 prints per "
           "working core) while an openMSP430-class design still "
           "needs an order of magnitude more attempts - yield is "
           "as strong an argument for low-gate-count printed "
           "cores as area and power.\n";

    if (!jsonPath.empty()) {
        jr.meta("threads", threads);
        jr.meta("samples", samples);
        jr.meta("wall_ms", timer.elapsedMs());
        jr.writeTo(jsonPath);
    }
    return 0;
}
