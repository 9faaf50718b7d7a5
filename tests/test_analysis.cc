/**
 * @file
 * Tests for the characterization core: static timing, area, and
 * power analysis, verified against hand-computed values from the
 * Table 2 cell data — plus thread-count determinism of the
 * variation Monte Carlo (the test_fault.cc pattern extended to
 * analysis code running on common/parallel.hh) and the yield
 * statistics bench_fault_yield checks its Monte Carlo with.
 */

#include <gtest/gtest.h>

#include "analysis/characterize.hh"
#include "analysis/variation.hh"
#include "analysis/yield.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "netlist/netlist.hh"
#include "synth/blocks.hh"

namespace printed
{
namespace
{

using namespace synth;

TEST(Timing, InverterChainAlternatesRiseFall)
{
    // Two EGFET inverters in series: the worst path to the output is
    // max over polarities. For INV: out_rise = in_fall + rise,
    // out_fall = in_rise + fall.
    //   After inv1: rise = 1212, fall = 174.
    //   After inv2: rise = 174 + 1212 = 1386, fall = 1212 + 174 = 1386.
    Netlist nl;
    NetId n = nl.addInput("a");
    n = nl.addGate(CellKind::INVX1, n);
    n = nl.addGate(CellKind::INVX1, n);
    nl.addOutput("y", n);

    const TimingReport t = analyzeTiming(nl, egfetLibrary());
    EXPECT_DOUBLE_EQ(t.outputDelayUs, 1386.0);
    EXPECT_DOUBLE_EQ(t.criticalPathUs, 1386.0);
}

TEST(Timing, RegisterToRegisterPath)
{
    // DFF -> INV -> DFF in EGFET:
    // clk-to-q (worst 6149) + INV (rise from fall: q_fall=3923 ->
    // 3923 + 1212 = 5135; fall from rise: 6149 + 174 = 6323).
    // Path to D = 6323.
    Netlist nl;
    const NetId d = nl.addInput("d");
    const NetId q1 = nl.addFlop(d);
    const NetId inv = nl.addGate(CellKind::INVX1, q1);
    const NetId q2 = nl.addFlop(inv);
    nl.addOutput("q", q2);

    const TimingReport t = analyzeTiming(nl, egfetLibrary());
    EXPECT_DOUBLE_EQ(t.regPathUs, 6323.0);
    EXPECT_DOUBLE_EQ(t.periodUs, 6323.0);
    EXPECT_NEAR(t.fmaxHz, 1e6 / 6323.0, 1e-9);
}

TEST(Timing, PeriodFlooredAtFlopDelay)
{
    // A flop feeding itself directly: period = clk-to-q floor.
    Netlist nl;
    const NetId fb = nl.makeFeedback();
    const NetId q = nl.addFlop(fb);
    nl.resolveFeedback(fb, q);
    nl.addOutput("q", q);

    const TimingReport t = analyzeTiming(nl, egfetLibrary());
    EXPECT_DOUBLE_EQ(t.periodUs, 6149.0);
}

TEST(Timing, CntFasterThanEgfet)
{
    Netlist nl;
    const Bus a = busInputs(nl, "a", 8);
    const Bus b = busInputs(nl, "b", 8);
    const AddResult res = rippleAdder(nl, a, b, nl.constZero());
    busOutputs(nl, "s", res.sum);

    const TimingReport te = analyzeTiming(nl, egfetLibrary());
    const TimingReport tc = analyzeTiming(nl, cntLibrary());
    EXPECT_GT(te.criticalPathUs, 100 * tc.criticalPathUs);
}

TEST(Area, SumsCellAreas)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId x = nl.addGate(CellKind::NAND2X1, a, b); // 0.247
    const NetId q = nl.addFlop(x);                       // 1.41
    nl.addOutput("q", q);

    const AreaReport area = analyzeArea(nl, egfetLibrary());
    EXPECT_DOUBLE_EQ(area.total_mm2, 0.247 + 1.41);
    EXPECT_DOUBLE_EQ(area.comb_mm2, 0.247);
    EXPECT_DOUBLE_EQ(area.seq_mm2, 1.41);
    EXPECT_DOUBLE_EQ(area.totalCm2(), (0.247 + 1.41) / 100.0);
}

TEST(Power, DynamicScalesWithFrequency)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    nl.addOutput("y", nl.addGate(CellKind::INVX1, a));

    const PowerReport p1 = analyzePower(nl, egfetLibrary(), 10.0, 1.0);
    const PowerReport p2 = analyzePower(nl, egfetLibrary(), 20.0, 1.0);
    EXPECT_NEAR(p2.dynamic_mW, 2 * p1.dynamic_mW, 1e-12);
    EXPECT_DOUBLE_EQ(p1.static_mW, p2.static_mW);
}

TEST(Power, HandComputedInverter)
{
    // One EGFET INV at 100 Hz with activity 1.0:
    // dynamic = 9.8 nJ * 100 Hz = 980 nW = 9.8e-4 mW.
    // static = 5.8 uW * 1 stage = 5.8e-3 mW.
    Netlist nl;
    const NetId a = nl.addInput("a");
    nl.addOutput("y", nl.addGate(CellKind::INVX1, a));

    const PowerReport p = analyzePower(nl, egfetLibrary(), 100.0, 1.0);
    EXPECT_NEAR(p.dynamic_mW, 9.8e-4, 1e-12);
    EXPECT_NEAR(p.static_mW, 5.8e-3, 1e-12);
    EXPECT_NEAR(p.total_mW, 9.8e-4 + 5.8e-3, 1e-12);
}

TEST(Power, EnergyPerCycleConsistent)
{
    Netlist nl;
    const Bus a = busInputs(nl, "a", 4);
    const Bus q = registerBank(nl, a);
    busOutputs(nl, "q", q);

    const double f = 50.0;
    const PowerReport p = analyzePower(nl, egfetLibrary(), f, 0.88);
    // energy/cycle [nJ] * f [Hz] == total power [nW].
    EXPECT_NEAR(p.energyPerCycle_nJ * f, p.total_mW * 1e6, 1e-6);
}

TEST(Characterize, EightBitAdderEndToEnd)
{
    Netlist nl("adder8");
    const Bus a = busInputs(nl, "a", 8);
    const Bus b = busInputs(nl, "b", 8);
    const AddResult res = rippleAdder(nl, a, b, nl.constZero());
    busOutputs(nl, "s", res.sum);
    nl.addOutput("cout", res.carryOut);

    const Characterization ch = characterize(nl, egfetLibrary());
    EXPECT_EQ(ch.label, "adder8");
    EXPECT_GT(ch.gateCount(), 30u);   // ~5 cells per full adder
    EXPECT_LT(ch.gateCount(), 60u);
    EXPECT_GT(ch.areaCm2(), 0.0);
    EXPECT_GT(ch.fmaxHz(), 1.0);      // combinational: 1/delay
    EXPECT_GT(ch.powerMw(), 0.0);
    EXPECT_EQ(ch.stats.seqGates, 0u);
}

TEST(Characterize, SequentialBlockUsesRegPath)
{
    Netlist nl("pipeline_stage");
    const Bus a = busInputs(nl, "a", 8);
    const Bus q1 = registerBank(nl, a);
    const Bus inc = incrementer(nl, q1);
    const Bus q2 = registerBank(nl, inc);
    busOutputs(nl, "q", q2);

    const Characterization ch = characterize(nl, egfetLibrary());
    EXPECT_EQ(ch.stats.seqGates, 16u);
    EXPECT_GT(ch.timing.periodUs,
              egfetLibrary().flopPeriodFloorUs());
    // EGFET frequencies land in the paper's "few Hz to kHz" band.
    EXPECT_GT(ch.fmaxHz(), 1.0);
    EXPECT_LT(ch.fmaxHz(), 1000.0);
}

TEST(Characterize, RejectsUndrivenNetAndCycleByName)
{
    Netlist open("open");
    const NetId a = open.addInput("a");
    const NetId floating = open.addNet("floating");
    open.addOutput("y", open.addGate(CellKind::AND2X1, a, floating));
    try {
        characterize(open, egfetLibrary());
        FAIL() << "expected PanicError";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(),
                     "Netlist 'open': net 1 (floating) is read but "
                     "undriven");
    }

    Netlist loop("loop");
    const NetId b = loop.addInput("b");
    const NetId fb = loop.makeFeedback();
    const NetId y = loop.addGate(CellKind::AND2X1, b, fb);
    loop.resolveFeedback(fb, loop.addGate(CellKind::INVX1, y));
    loop.addOutput("y", y);
    try {
        characterize(loop, egfetLibrary());
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "Netlist 'loop': combinational cycle "
                               "detected (2 gates unschedulable)");
    }
}

// ----------------------------------------------------------------
// Variation Monte Carlo: parallel determinism
// ----------------------------------------------------------------

/** A small but non-trivial sequential netlist for the MC. */
Netlist
makeVariationTestNetlist()
{
    Netlist nl("vartest");
    const Bus a = busInputs(nl, "a", 8);
    const Bus b = busInputs(nl, "b", 8);
    const AddResult res = rippleAdder(nl, a, b, nl.constZero());
    const Bus q = registerBank(nl, res.sum);
    busOutputs(nl, "s", q);
    nl.validate();
    return nl;
}

TEST(Variation, BitIdenticalAcrossThreadCounts)
{
    const Netlist nl = makeVariationTestNetlist();
    // 200 samples are four 64-sample blocks, so workers race.
    VariationModel model;
    model.samples = 200;
    model.seed = 99;

    const VariationReport serial =
        analyzeVariation(nl, egfetLibrary(), model);
    for (unsigned threads : {2u, 8u}) {
        ThreadPool pool(threads);
        model.pool = &pool;
        const VariationReport parallel =
            analyzeVariation(nl, egfetLibrary(), model);
        // Bit-identical, not merely close: per-sample seeding plus
        // index-ordered reduction make the thread count invisible.
        EXPECT_EQ(serial.nominalPeriodUs, parallel.nominalPeriodUs);
        EXPECT_EQ(serial.meanPeriodUs, parallel.meanPeriodUs);
        EXPECT_EQ(serial.stdDevUs, parallel.stdDevUs);
        EXPECT_EQ(serial.p50Us, parallel.p50Us);
        EXPECT_EQ(serial.p95Us, parallel.p95Us);
        EXPECT_EQ(serial.p99Us, parallel.p99Us);
        EXPECT_EQ(serial.worstUs, parallel.worstUs);
    }
}

TEST(Variation, SamplesAreIndependentOfSampleCount)
{
    // Per-sample seeding also means sample s draws the same
    // multipliers no matter how many other samples run: the sorted
    // 32-sample distribution is a superset-invariant of the first
    // 16 samples' values.
    const Netlist nl = makeVariationTestNetlist();
    VariationModel small;
    small.samples = 16;
    small.seed = 5;
    VariationModel big = small;
    big.samples = 32;

    const auto rs = analyzeVariation(nl, egfetLibrary(), small);
    const auto rb = analyzeVariation(nl, egfetLibrary(), big);
    // Worst of the superset can only grow.
    EXPECT_GE(rb.worstUs, rs.worstUs);
    EXPECT_EQ(rs.nominalPeriodUs, rb.nominalPeriodUs);
}

// ----------------------------------------------------------------
// Yield statistics (reference values: exact rational arithmetic)
// ----------------------------------------------------------------

TEST(YieldStats, WilsonIntervalMatchesClosedForm)
{
    // 0 of n: [0, z^2 / (n + z^2)], not the empty normal interval.
    const ProportionInterval none = wilsonInterval(0, 128);
    EXPECT_EQ(none.lo, 0.0);
    EXPECT_NEAR(none.hi, 0.029137995898108032, 1e-12);
    const ProportionInterval half = wilsonInterval(50, 100);
    EXPECT_NEAR(half.lo, 0.40382982859014716, 1e-12);
    EXPECT_NEAR(half.hi, 0.5961701714098528, 1e-12);
    const ProportionInterval all = wilsonInterval(128, 128);
    EXPECT_NEAR(all.lo, 1 - none.hi, 1e-12);
    EXPECT_NEAR(all.hi, 1.0, 1e-12);
    for (std::size_t k = 0; k <= 40; ++k) {
        const ProportionInterval ci = wilsonInterval(k, 40);
        EXPECT_LE(ci.lo, double(k) / 40);
        EXPECT_GE(ci.hi, double(k) / 40);
    }
    EXPECT_THROW(wilsonInterval(0, 0), FatalError);
}

TEST(YieldStats, ExactBinomialTestIsTwoSided)
{
    // Symmetric: P(X <= 3) + P(X >= 17) for Binomial(20, 1/2).
    EXPECT_NEAR(binomialTestP(3, 20, 0.5), 0.0025768280029296875,
                1e-12);
    EXPECT_NEAR(binomialTestP(17, 20, 0.5), 0.0025768280029296875,
                1e-12);
    EXPECT_NEAR(binomialTestP(10, 20, 0.5), 1.0, 1e-12);
    // Skewed: every outcome no likelier than the observed one, on
    // both tails.
    EXPECT_NEAR(binomialTestP(7, 20, 0.1), 0.0023860894089661167,
                1e-12);
    EXPECT_NEAR(binomialTestP(0, 20, 0.1), 0.25452997802490435, 1e-12);
    // A tiny analytic yield: no defect-free trial is the likeliest
    // outcome, one is already implausible.
    EXPECT_NEAR(binomialTestP(0, 128, 4.1e-5), 1.0, 1e-12);
    EXPECT_LT(binomialTestP(1, 1000, 4e-11), 1e-6);
    EXPECT_DOUBLE_EQ(binomialTestP(0, 5, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(binomialTestP(1, 5, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(binomialTestP(5, 5, 1.0), 1.0);
}

} // anonymous namespace
} // namespace printed
