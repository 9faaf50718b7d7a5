/**
 * @file
 * Extension study: functional yield under gate-level fault
 * injection, and what redundancy hardening buys back.
 *
 * Section 3.1 treats every defective printed device as fatal, which
 * makes circuit yield decay geometrically in gate count - the
 * paper's headline argument for tiny cores. This bench measures how
 * pessimistic that is: seeded Monte-Carlo defect maps are overlaid
 * on gate-level TP-ISA cores, real workloads are executed, and each
 * map is classified fatal / workload-masked / fully benign. Larger
 * (Z80-class, openMSP430-class) designs are modeled as arrays of
 * TP-ISA cores at the published device counts, every replica drawn
 * and simulated independently. A second table prices the TMR
 * hardening passes (synth/harden.hh): analytic yield *drops* with
 * the added devices while measured functional yield climbs.
 *
 * Options: --trials N (default 1000), --threads N (size of the one
 *          pool every MC runs on; default 0 = all cores),
 *          --seed S, --device-yield-ppm P (default 9999 = 99.99%),
 *          --json <path>.
 */

#include <chrono>
#include <iostream>

#include "analysis/fault.hh"
#include "analysis/yield.hh"
#include "bench_util.hh"
#include "common/parallel.hh"
#include "core/generator.hh"
#include "legacy/cores.hh"
#include "synth/harden.hh"

using namespace printed;

namespace
{

/**
 * False-alarm rate per design of the binomial check on the MC
 * defect-free count: with six designs a correct build fails it about
 * once in 170,000 runs.
 */
constexpr double binomialAlpha = 1e-6;

struct DesignResult
{
    std::string name;
    std::size_t gates = 0;
    std::size_t devices = 0; ///< total, all replicas
    double wallMs = 0;       ///< Monte-Carlo wall clock
    FunctionalYieldReport r;

    /** Wilson 95 % interval of the MC defect-free rate. */
    ProportionInterval
    defectFreeCi() const
    {
        return wilsonInterval(r.defectFreeTrials, r.trials);
    }

    /** Wilson 95 % interval of the functional yield. */
    ProportionInterval
    functionalCi() const
    {
        return wilsonInterval(r.trials - r.fatalTrials, r.trials);
    }

    /**
     * Two-sided exact binomial test of the defect-free count: a
     * trial is defect-free with exactly the analytic probability,
     * so the count is Binomial(trials, analytic yield).
     */
    double
    binomialP() const
    {
        return binomialTestP(r.defectFreeTrials, r.trials,
                             r.analyticYield);
    }
};

/** "0.9140 [0.8960, 0.9293]": a rate with its interval. */
std::string
withCi(double rate, const ProportionInterval &ci)
{
    return TableWriter::num(rate, 4) + " [" + TableWriter::num(ci.lo, 4) +
           ", " + TableWriter::num(ci.hi, 4) + "]";
}

DesignResult
runDesign(const std::string &name, const Netlist &nl,
          const CoreConfig &cfg, const FunctionalYieldConfig &mc)
{
    DesignResult d;
    d.name = name;
    d.gates = nl.gateCount() * mc.replicas;
    const bench::WallTimer timer;
    d.r = measureFunctionalYield(nl, cfg, mc);
    d.wallMs = timer.elapsedMs();
    d.devices = d.r.devicesPerReplica * d.r.replicas;
    return d;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    printed::bench::initObservability(argc, argv);
    const auto trials =
        bench::uintFromArgs<unsigned>(argc, argv, "trials", 1000);
    ThreadPool pool(
        bench::uintFromArgs<unsigned>(argc, argv, "threads", 0));
    const auto seed = bench::uintFromArgs(argc, argv, "seed", 1);
    const double deviceYield =
        double(bench::uintFromArgs(argc, argv, "device-yield-ppm",
                                   9999)) /
        1e4;
    const std::string jsonPath = bench::jsonPathFromArgs(argc, argv);

    bench::banner(
        "Extension: fault injection & functional yield",
        "Monte-Carlo gate-level defect maps vs the Section 3.1 "
        "analytic bound, and the cost/yield trade-off of "
        "TMR hardening");

    std::cout << "device yield " << 100 * deviceYield << "%, "
              << trials << " trials/design, seed " << seed << "\n\n";

    FunctionalYieldConfig mc;
    mc.fault.deviceYield = deviceYield;
    mc.fault.seed = seed;
    mc.trials = trials;
    mc.pool = &pool;

    const auto t0 = std::chrono::steady_clock::now();

    std::vector<DesignResult> results;

    // --- TP-ISA single-cycle core, unhardened and hardened -------
    const CoreConfig p1 = CoreConfig::standard(1, 8, 2);
    const Netlist p1nl = buildCore(p1);
    mc.kernels = {Kernel::Mult, Kernel::THold};
    results.push_back(runDesign("TP-ISA p1_8_2", p1nl, p1, mc));

    synth::HardenReport seqRep, fullRep;
    const Netlist p1seq =
        synth::harden(p1nl, synth::HardenStrategy::TmrSequential,
                      &seqRep);
    results.push_back(
        runDesign("TP-ISA p1_8_2 +TMR-seq", p1seq, p1, mc));

    const Netlist p1full = synth::harden(
        p1nl, synth::HardenStrategy::TmrFull, &fullRep);
    results.push_back(
        runDesign("TP-ISA p1_8_2 +TMR-full", p1full, p1, mc));

    // --- TP-ISA two-stage pipeline -------------------------------
    const CoreConfig p2 = CoreConfig::standard(2, 8, 2);
    const Netlist p2nl = buildCore(p2);
    mc.kernels = {Kernel::Mult};
    results.push_back(runDesign("TP-ISA p2_8_2", p2nl, p2, mc));

    // --- Legacy-class gate counts as TP-ISA core arrays ----------
    // No gate-level netlists exist for the Table 4 cores (the paper
    // synthesized their RTL; we model them statistically), so their
    // published device counts are represented as arrays of p1_8_2
    // cores that must all print correctly - same devices, same
    // analytic yield, and every replica's defects simulated for
    // real.
    mc.kernels = {Kernel::Mult, Kernel::THold};
    const std::size_t p1devices = deviceCount(p1nl);
    using legacy::LegacyCore;
    for (LegacyCore core : {LegacyCore::Z80,
                            LegacyCore::OpenMsp430}) {
        const auto &spec = legacy::legacyCoreSpec(core);
        // ~2 devices per cell on the statistical mix, as in
        // bench_variation_yield.
        const std::size_t target = spec.egfet.gateCount * 2;
        mc.replicas = unsigned(
            std::max<std::size_t>(1, (target + p1devices / 2) /
                                         p1devices));
        results.push_back(runDesign(spec.name + "-class array",
                                    p1nl, p1, mc));
        mc.replicas = 1;
    }

    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    // --- Scalar-engine cross-check -------------------------------
    // Re-run the first design on the scalar golden-reference engine:
    // the report must be bit-identical (same seeds, same trial
    // classification), and the wall-clock ratio is the measured
    // speedup of the 64-lane batch engine. The batch run verified
    // the fault-free core; forget that so the scalar time includes
    // the verification too.
    mc.kernels = {Kernel::Mult, Kernel::THold};
    mc.engine = SimEngine::Scalar;
    goldenVerifyMemoClear();
    const DesignResult scalarRef =
        runDesign(results[0].name, p1nl, p1, mc);
    mc.engine = SimEngine::Batch;
    const bool enginesAgree =
        scalarRef.r.fatalTrials == results[0].r.fatalTrials &&
        scalarRef.r.maskedTrials == results[0].r.maskedTrials &&
        scalarRef.r.benignTrials == results[0].r.benignTrials &&
        scalarRef.r.defectFreeTrials ==
            results[0].r.defectFreeTrials;
    const double speedup = scalarRef.wallMs / results[0].wallMs;

    // --- Report --------------------------------------------------
    TableWriter t({"Design", "Gates", "Devices", "analytic yield",
                   "MC defect-free [95% CI]",
                   "functional yield [95% CI]", "masked", "benign",
                   "fatal"});
    for (const DesignResult &d : results) {
        t.addRow({d.name, std::to_string(d.gates),
                  std::to_string(d.devices),
                  TableWriter::num(d.r.analyticYield, 4),
                  withCi(d.r.defectFreeRate(), d.defectFreeCi()),
                  withCi(d.r.functionalYield(), d.functionalCi()),
                  std::to_string(d.r.maskedTrials),
                  std::to_string(d.r.benignTrials),
                  std::to_string(d.r.fatalTrials)});
    }
    t.print(std::cout);
    std::cout << "(Wilson 95% intervals over " << trials
              << " trials)\n";

    std::cout << "\nHardening cost (p1_8_2): TMR-seq "
              << seqRep.gatesBefore << " -> " << seqRep.gatesAfter
              << " gates (" << seqRep.votersInserted
              << " voters), TMR-full " << fullRep.gatesBefore
              << " -> " << fullRep.gatesAfter << " gates ("
              << fullRep.votersInserted << " voters)\n";
    std::cout << "Monte-Carlo wall time: "
              << TableWriter::fixed(elapsed, 1) << " s ("
              << results.size() << " designs, batch engine)\n";
    std::cout << "Engine check (" << results[0].name
              << "): scalar "
              << TableWriter::fixed(scalarRef.wallMs, 0)
              << " ms vs batch "
              << TableWriter::fixed(results[0].wallMs, 0)
              << " ms -> " << TableWriter::fixed(speedup, 1)
              << "x speedup, reports "
              << (enginesAgree ? "bit-identical" : "DIFFER") << "\n";

    // --- Invariant checks (the point of the experiment) ----------
    // A defect-free trial is never fatal, so functional yield is at
    // least the MC defect-free rate, exactly and per trial. The
    // analytic yield is a probability, not a bound on a finite
    // sample: the MC defect-free count is Binomial(trials, analytic
    // yield), tested two-sided so a draw that is too optimistic
    // fails as well as one too pessimistic.
    bool ok = true;
    for (const DesignResult &d : results) {
        if (d.r.trials - d.r.fatalTrials < d.r.defectFreeTrials) {
            std::cout << "FAIL: functional yield below the MC "
                         "defect-free rate for " << d.name << "\n";
            ok = false;
        }
        if (d.binomialP() < binomialAlpha) {
            std::cout << "FAIL: " << d.r.defectFreeTrials << " of "
                      << d.r.trials << " trials defect-free for "
                      << d.name << " is implausible at analytic yield "
                      << d.r.analyticYield << " (two-sided binomial p = "
                      << d.binomialP() << " < " << binomialAlpha
                      << ")\n";
            ok = false;
        }
    }
    // Full TMR must beat the unhardened core - unless the latter
    // already prints perfectly and there is nothing left to win.
    // (TMR-seq is reported but not asserted: at this fault mix the
    // voters it adds expose more devices than the flops it
    // protects - selective state-only hardening is a net loss,
    // which is exactly the kind of result this bench exists to
    // surface.)
    const double unhardened = results[0].r.functionalYield();
    if (unhardened < 1.0 &&
        results[2].r.functionalYield() <= unhardened) {
        std::cout << "FAIL: " << results[2].name
                  << " does not beat the unhardened core\n";
        ok = false;
    }
    if (!enginesAgree) {
        std::cout << "FAIL: batch and scalar engines disagree on "
                  << results[0].name << "\n";
        ok = false;
    }

    std::cout
        << "\nTakeaway: at " << 100 * deviceYield
        << "% device yield the analytic bound undersells printed "
           "cores - a fifth to a half of real defect maps still "
           "compute every workload correctly - and TMR buys "
           "functional yield with area: the analytic yield of the "
           "hardened netlist is *lower* (more devices) while its "
           "measured functional yield is the highest of all "
           "configurations. Redundancy, not perfection, is the "
           "printable path to larger cores.\n";

    if (!jsonPath.empty()) {
        bench::JsonReport jr("bench_fault_yield");
        jr.meta("trials", trials);
        jr.meta("device_yield", deviceYield);
        jr.meta("seed", seed);
        jr.meta("wall_time_s", elapsed);
        jr.meta("engine", "batch");
        jr.meta("scalar_check_wall_ms", scalarRef.wallMs);
        jr.meta("batch_check_wall_ms", results[0].wallMs);
        jr.meta("speedup_vs_scalar", speedup);
        jr.meta("engines_agree", enginesAgree);
        jr.meta("binomial_alpha", binomialAlpha);
        for (const DesignResult &d : results) {
            jr.add("designs",
                   {{"name", d.name},
                    {"gates", d.gates},
                    {"devices", d.devices},
                    {"replicas", d.r.replicas},
                    {"wall_ms", d.wallMs},
                    {"analytic_yield", d.r.analyticYield},
                    {"defect_free_rate", d.r.defectFreeRate()},
                    {"defect_free_ci95_lo", d.defectFreeCi().lo},
                    {"defect_free_ci95_hi", d.defectFreeCi().hi},
                    {"defect_free_binomial_p", d.binomialP()},
                    {"functional_yield", d.r.functionalYield()},
                    {"functional_yield_ci95_lo", d.functionalCi().lo},
                    {"functional_yield_ci95_hi", d.functionalCi().hi},
                    {"masked_trials", d.r.maskedTrials},
                    {"benign_trials", d.r.benignTrials},
                    {"fatal_trials", d.r.fatalTrials}});
        }
        jr.add("hardening",
               {{"strategy", "TMR-seq"},
                {"gates_before", seqRep.gatesBefore},
                {"gates_after", seqRep.gatesAfter},
                {"voters", seqRep.votersInserted}});
        jr.add("hardening",
               {{"strategy", "TMR-full"},
                {"gates_before", fullRep.gatesBefore},
                {"gates_after", fullRep.gatesAfter},
                {"voters", fullRep.votersInserted}});
        jr.writeTo(jsonPath);
    }

    return ok ? 0 : 1;
}
