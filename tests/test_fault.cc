/**
 * @file
 * Unit tests for gate-level fault injection (analysis/fault.hh,
 * sim fault overlay) and the redundancy-hardening passes
 * (synth/harden.hh): defect-draw determinism, voter correctness,
 * TMR single-fault tolerance, functional-yield Monte-Carlo
 * determinism across thread counts, and the fault-free verification
 * memo (the CI TSan job runs this binary for its concurrent calls).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/fault.hh"
#include "analysis/yield.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "core/generator.hh"
#include "netlist/netlist.hh"
#include "sim/simulator.hh"
#include "synth/harden.hh"

namespace printed
{
namespace
{

// ----------------------------------------------------------------
// Test circuits
// ----------------------------------------------------------------

/**
 * 2-bit enabled counter plus a combinational parity output. 4
 * combinational gates, 2 flops, no tri-states - the gate layout
 * documented in harden.hh makes every TMR copy's GateId
 * predictable for the single-fault sweeps below.
 */
Netlist
makeCounter()
{
    Netlist nl("counter");
    const NetId en = nl.addInput("en");
    const NetId fb0 = nl.makeFeedback();
    const NetId fb1 = nl.makeFeedback();
    const NetId d0 = nl.addGate(CellKind::XOR2X1, fb0, en);
    const NetId carry = nl.addGate(CellKind::AND2X1, fb0, en);
    const NetId d1 = nl.addGate(CellKind::XOR2X1, fb1, carry);
    const NetId q0 = nl.addFlop(d0);
    const NetId q1 = nl.addFlop(d1);
    nl.resolveFeedback(fb0, q0);
    nl.resolveFeedback(fb1, q1);
    nl.addOutput("q0", q0);
    nl.addOutput("q1", q1);
    nl.addOutput("odd", nl.addGate(CellKind::XOR2X1, q0, q1));
    nl.validate();
    return nl;
}

/** Tri-state 2:1 mux with a registered copy of the bus. */
Netlist
makeTristateMux()
{
    Netlist nl("tmux");
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId sel = nl.addInput("sel");
    const NetId nsel = nl.addGate(CellKind::INVX1, sel);
    const NetId bus = nl.addNet("bus");
    nl.addTristate(a, sel, bus);
    nl.addTristate(b, nsel, bus);
    nl.addOutput("y", bus);
    nl.addOutput("q", nl.addFlop(bus));
    nl.validate();
    return nl;
}

/** Deterministic pseudo-random input pattern per (cycle, input). */
bool
inputPattern(unsigned cycle, std::size_t input)
{
    const std::uint64_t h =
        (cycle + 1) * 0x9e3779b97f4a7c15ull + input * 0xbf58476d1ce4e5b9ull;
    return ((h >> 17) ^ (h >> 3)) & 1;
}

/** Run `cycles` cycles and collect every output value per cycle. */
std::vector<bool>
runTrace(const Netlist &nl, const std::vector<InjectedFault> &faults,
         unsigned cycles)
{
    GateSimulator sim(nl);
    sim.reset();
    if (!faults.empty())
        sim.setFaults(faults);
    std::vector<bool> trace;
    for (unsigned c = 0; c < cycles; ++c) {
        for (std::size_t i = 0; i < nl.inputs().size(); ++i)
            sim.setInput(nl.inputs()[i].net, inputPattern(c, i));
        sim.cycle();
        for (const auto &p : nl.outputs())
            trace.push_back(sim.output(p.name));
    }
    return trace;
}

// ----------------------------------------------------------------
// Defect drawing
// ----------------------------------------------------------------

TEST(FaultSeed, DeterministicAndDistinct)
{
    EXPECT_EQ(faultTrialSeed(1, 0, 0), faultTrialSeed(1, 0, 0));
    std::set<std::uint64_t> seen;
    for (std::uint64_t s : {1ull, 2ull})
        for (std::uint64_t t = 0; t < 8; ++t)
            for (std::uint64_t r = 0; r < 3; ++r)
                seen.insert(faultTrialSeed(s, t, r));
    EXPECT_EQ(seen.size(), 2u * 8u * 3u);
}

TEST(FaultDraw, DeterministicPerTrialSeed)
{
    const Netlist nl = makeCounter();
    FaultModel model;
    model.deviceYield = 0.9; // plenty of defects on 7 gates
    bool anyDiffer = false;
    for (std::uint64_t t = 0; t < 32; ++t) {
        const std::uint64_t ts = faultTrialSeed(7, t);
        const DefectMap m1 = drawDefects(nl, model, ts);
        const DefectMap m2 = drawDefects(nl, model, ts);
        ASSERT_EQ(m1.faults.size(), m2.faults.size());
        for (std::size_t i = 0; i < m1.faults.size(); ++i) {
            EXPECT_EQ(m1.faults[i].gate, m2.faults[i].gate);
            EXPECT_EQ(m1.faults[i].kind, m2.faults[i].kind);
            EXPECT_EQ(m1.faults[i].bridge, m2.faults[i].bridge);
        }
        if (t > 0) {
            const DefectMap prev =
                drawDefects(nl, model, faultTrialSeed(7, t - 1));
            if (prev.faults.size() != m1.faults.size())
                anyDiffer = true;
            else
                for (std::size_t i = 0; i < m1.faults.size(); ++i)
                    if (prev.faults[i].gate != m1.faults[i].gate ||
                        prev.faults[i].kind != m1.faults[i].kind)
                        anyDiffer = true;
        }
    }
    EXPECT_TRUE(anyDiffer) << "every trial drew the same defects";
}

TEST(FaultDraw, PerfectDeviceYieldDrawsNothing)
{
    const Netlist nl = makeCounter();
    FaultModel model;
    model.deviceYield = 1.0;
    for (std::uint64_t t = 0; t < 64; ++t)
        EXPECT_TRUE(
            drawDefects(nl, model, faultTrialSeed(1, t)).empty());
}

TEST(FaultDraw, ZeroDeviceYieldBreaksEveryGate)
{
    const Netlist nl = makeCounter();
    FaultModel model;
    model.deviceYield = 0.0;
    const DefectMap m = drawDefects(nl, model, faultTrialSeed(1, 0));
    EXPECT_EQ(m.faults.size(), nl.gateCount());
}

// ----------------------------------------------------------------
// Fault overlay semantics
// ----------------------------------------------------------------

TEST(FaultOverlay, StuckAtForcesOutputAndCountsActivations)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    nl.addOutput("y", nl.addGate(CellKind::AND2X1, a, b));
    GateSimulator sim(nl);

    sim.setFaults({{0, FaultKind::StuckAt1, invalidNet}});
    sim.setInput(a, false);
    sim.setInput(b, false);
    sim.evaluate();
    EXPECT_TRUE(sim.output("y")); // fault-free AND would give 0
    EXPECT_GE(sim.faultActivations(), 1u);

    sim.setFaults({{0, FaultKind::StuckAt0, invalidNet}});
    sim.setInput(a, true);
    sim.setInput(b, true);
    sim.evaluate();
    EXPECT_FALSE(sim.output("y"));
    EXPECT_GE(sim.faultActivations(), 1u);

    // A stuck-at that matches the fault-free value never activates.
    sim.setFaults({{0, FaultKind::StuckAt1, invalidNet}});
    sim.evaluate();
    EXPECT_TRUE(sim.output("y"));
    EXPECT_EQ(sim.faultActivations(), 0u);

    sim.clearFaults();
    sim.setInput(b, false);
    sim.evaluate();
    EXPECT_FALSE(sim.output("y"));
}

TEST(FaultOverlay, BridgeIsWiredAndWithAggressor)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    nl.addOutput("y", nl.addGate(CellKind::OR2X1, a, b));
    GateSimulator sim(nl);
    sim.setFaults({{0, FaultKind::BridgeInput, a}});

    // Aggressor low drags the shorted output low (wired-AND).
    sim.setInput(a, false);
    sim.setInput(b, true);
    sim.evaluate();
    EXPECT_FALSE(sim.output("y")); // fault-free OR would give 1
    EXPECT_GE(sim.faultActivations(), 1u);

    // Aggressor high leaves the output alone.
    sim.setFaults({{0, FaultKind::BridgeInput, a}});
    sim.setInput(a, true);
    sim.setInput(b, false);
    sim.evaluate();
    EXPECT_TRUE(sim.output("y"));
    EXPECT_EQ(sim.faultActivations(), 0u);
}

// ----------------------------------------------------------------
// Hardening passes
// ----------------------------------------------------------------

TEST(Harden, MajorityVoterTruthTable)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId c = nl.addInput("c");
    nl.addOutput("m", synth::majority3(nl, a, b, c));
    GateSimulator sim(nl);
    for (int v = 0; v < 8; ++v) {
        sim.setInput(a, v & 1);
        sim.setInput(b, v & 2);
        sim.setInput(c, v & 4);
        sim.evaluate();
        const int ones = (v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1);
        EXPECT_EQ(sim.output("m"), ones >= 2) << "inputs " << v;
    }
}

TEST(Harden, PreservesFunctionWithoutFaults)
{
    for (const Netlist &src : {makeCounter(), makeTristateMux()}) {
        const std::vector<bool> golden = runTrace(src, {}, 24);
        for (auto strategy : {synth::HardenStrategy::TmrFull,
                              synth::HardenStrategy::TmrSequential}) {
            synth::HardenReport rep;
            const Netlist hard = synth::harden(src, strategy, &rep);
            hard.validate();
            EXPECT_EQ(rep.gatesBefore, src.gateCount());
            EXPECT_EQ(rep.gatesAfter, hard.gateCount());
            EXPECT_GT(rep.votersInserted, 0u);
            EXPECT_EQ(runTrace(hard, {}, 24), golden)
                << synth::hardenStrategyName(strategy) << " on "
                << (src.gateCount() == 7 ? "counter" : "tmux");
        }
    }
}

TEST(Harden, TmrFullCorrectsAnySingleCopyFault)
{
    const Netlist src = makeCounter(); // 4 comb gates, 2 flops
    const Netlist hard =
        synth::harden(src, synth::HardenStrategy::TmrFull);
    const std::vector<bool> golden = runTrace(src, {}, 24);

    // Documented layout: 3 consecutive copies per comb gate first,
    // then per flop its 3 copies followed by 5 voter gates.
    const std::size_t comb = 4, flops = 2;
    std::vector<GateId> copies;
    for (GateId gi = 0; gi < 3 * comb; ++gi)
        copies.push_back(gi);
    for (std::size_t f = 0; f < flops; ++f)
        for (GateId k = 0; k < 3; ++k)
            copies.push_back(GateId(3 * comb + 8 * f) + k);

    for (GateId gi : copies)
        for (FaultKind kind :
             {FaultKind::StuckAt0, FaultKind::StuckAt1})
            EXPECT_EQ(runTrace(hard, {{gi, kind, invalidNet}}, 24),
                      golden)
                << "uncorrected fault on " << hard.gateLabel(gi);
}

TEST(Harden, TmrSequentialCorrectsFlopCopyFaults)
{
    const Netlist src = makeCounter();
    const Netlist hard =
        synth::harden(src, synth::HardenStrategy::TmrSequential);
    const std::vector<bool> golden = runTrace(src, {}, 24);

    // Layout: single comb copy (4 gates), then per flop 3 copies +
    // 5 voter gates.
    const std::size_t comb = 4, flops = 2;
    for (std::size_t f = 0; f < flops; ++f)
        for (GateId k = 0; k < 3; ++k) {
            const GateId gi = GateId(comb + 8 * f) + k;
            for (FaultKind kind :
                 {FaultKind::StuckAt0, FaultKind::StuckAt1})
                EXPECT_EQ(
                    runTrace(hard, {{gi, kind, invalidNet}}, 24),
                    golden)
                    << "uncorrected fault on " << hard.gateLabel(gi);
        }
}

// ----------------------------------------------------------------
// Functional-yield Monte Carlo
// ----------------------------------------------------------------

TEST(FunctionalYield, DeterministicAcrossThreadCounts)
{
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist core = buildCore(cfg);

    // The replicated case packs defective copies over several
    // rounds, the first two blocks wide, so workers race for blocks.
    struct Case
    {
        unsigned trials;
        unsigned replicas;
    };
    for (const Case c : {Case{24, 1}, Case{80, 6}}) {
        FunctionalYieldConfig mc;
        mc.fault.deviceYield = 0.999; // frequent defects on few trials
        mc.fault.seed = 42;
        mc.trials = c.trials;
        mc.replicas = c.replicas;
        mc.kernels = {Kernel::Mult};

        ThreadPool one(1), four(4);
        mc.pool = &one;
        const FunctionalYieldReport serial =
            measureFunctionalYield(core, cfg, mc);
        mc.pool = &four;
        const FunctionalYieldReport parallel =
            measureFunctionalYield(core, cfg, mc);

        const std::string label = "trials " + std::to_string(c.trials) +
                                  " replicas " +
                                  std::to_string(c.replicas);
        EXPECT_EQ(serial.fatalTrials, parallel.fatalTrials) << label;
        EXPECT_EQ(serial.maskedTrials, parallel.maskedTrials) << label;
        EXPECT_EQ(serial.benignTrials, parallel.benignTrials) << label;
        EXPECT_EQ(serial.defectFreeTrials, parallel.defectFreeTrials)
            << label;

        // Accounting: every trial lands in exactly one bucket.
        EXPECT_EQ(serial.trials, mc.trials);
        EXPECT_EQ(serial.fatalTrials + serial.maskedTrials +
                      serial.benignTrials + serial.defectFreeTrials,
                  serial.trials);

        // Functional yield can only be *better* than defect-free rate.
        EXPECT_GE(serial.functionalYield() + 1e-12,
                  serial.defectFreeRate());
        EXPECT_EQ(serial.devicesPerReplica, deviceCount(core));
        EXPECT_EQ(serial.replicas, c.replicas);
        EXPECT_GT(serial.analyticYield, 0.0);
        EXPECT_LT(serial.analyticYield, 1.0);
    }
}

TEST(FunctionalYield, PerfectDeviceYieldIsAllDefectFree)
{
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist core = buildCore(cfg);

    FunctionalYieldConfig mc;
    mc.fault.deviceYield = 1.0;
    mc.trials = 4;
    mc.kernels = {Kernel::Mult};

    const FunctionalYieldReport r =
        measureFunctionalYield(core, cfg, mc);
    EXPECT_EQ(r.defectFreeTrials, r.trials);
    EXPECT_EQ(r.fatalTrials, 0u);
    EXPECT_DOUBLE_EQ(r.functionalYield(), 1.0);
    EXPECT_DOUBLE_EQ(r.analyticYield, 1.0);
}

TEST(FunctionalYield, BatchEngineMatchesScalarBitExactly)
{
    // The 64-lane engine must classify every trial exactly as the
    // scalar golden reference: same (seed, trial, replica) -> same
    // defect maps -> same fatal/masked/benign/defect-free buckets.
    // 70 trials spans two lane blocks (and a partial one); the
    // replicated runs exercise the per-replica early exit. The
    // 12-replica array takes three packing rounds (69, 17 and 2
    // copies), its blocks mix trials at different replica indices,
    // and at 99.98 % it still lands trials in all four buckets.
    // Both engines must also draw the same replica maps. Some lanes
    // must be retired as caught in a loop, so the comparison covers
    // that exit too.
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist core = buildCore(cfg);
    metrics::Counter &draws = metrics::counter("fault.draws");
    metrics::Counter &laneRuns = metrics::counter("fault.lane_runs");
    metrics::Counter &looped = metrics::counter("fault.lanes_looped");
    const std::uint64_t looped0 = looped.value();

    struct Case
    {
        unsigned trials;
        unsigned replicas;
        double deviceYield;
    };
    ThreadPool pool(2);
    for (const Case c : {Case{70, 1, 0.999}, Case{40, 2, 0.999},
                         Case{80, 12, 0.9998}}) {
        FunctionalYieldConfig mc;
        mc.fault.deviceYield = c.deviceYield; // frequent defects
        mc.fault.seed = 7;
        mc.trials = c.trials;
        mc.pool = &pool;
        mc.replicas = c.replicas;
        mc.kernels = {Kernel::Mult, Kernel::THold};

        mc.engine = SimEngine::Scalar;
        const std::uint64_t draws0 = draws.value();
        const FunctionalYieldReport scalar =
            measureFunctionalYield(core, cfg, mc);
        const std::uint64_t scalarDraws = draws.value() - draws0;
        mc.engine = SimEngine::Batch;
        const std::uint64_t draws1 = draws.value();
        const std::uint64_t runs1 = laneRuns.value();
        const FunctionalYieldReport batch =
            measureFunctionalYield(core, cfg, mc);
        const std::uint64_t batchDraws = draws.value() - draws1;
        const std::uint64_t batchRuns = laneRuns.value() - runs1;

        SCOPED_TRACE("trials " + std::to_string(c.trials) +
                     " replicas " + std::to_string(c.replicas));
        EXPECT_EQ(scalar.fatalTrials, batch.fatalTrials);
        EXPECT_EQ(scalar.maskedTrials, batch.maskedTrials);
        EXPECT_EQ(scalar.benignTrials, batch.benignTrials);
        EXPECT_EQ(scalar.defectFreeTrials, batch.defectFreeTrials);
        EXPECT_EQ(scalar.trials, batch.trials);
        EXPECT_DOUBLE_EQ(scalar.analyticYield, batch.analyticYield);
        EXPECT_EQ(scalarDraws, batchDraws);
        EXPECT_GE(batchDraws, std::uint64_t(c.trials));

        // At this defect rate the buckets must not be degenerate,
        // or the equivalence check would prove nothing.
        EXPECT_GT(batch.fatalTrials + batch.maskedTrials +
                      batch.benignTrials,
                  0u);
        if (c.replicas == 12) {
            EXPECT_GT(batch.fatalTrials, 0u);
            EXPECT_GT(batch.maskedTrials, 0u);
            EXPECT_GT(batch.benignTrials, 0u);
            EXPECT_GT(batch.defectFreeTrials, 0u);
            // One round runs at most ceil(trials / 64) blocks of
            // every kernel; more runs than that take several rounds.
            const std::uint64_t oneRound =
                (c.trials + 63) / 64 * mc.kernels.size();
            EXPECT_GT(batchRuns, oneRound);
        }
    }
    EXPECT_GT(looped.value(), looped0);
}

TEST(FunctionalYield, StopsDrawingAtTheFirstFatalCopy)
{
    // At 90 % device yield every copy of p1_8_2 carries dozens of
    // defects and is fatal, so each trial of a replica array ends
    // at replica 0: neither engine may draw the other replicas.
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist core = buildCore(cfg);
    metrics::Counter &draws = metrics::counter("fault.draws");

    ThreadPool pool(2);
    FunctionalYieldConfig mc;
    mc.fault.deviceYield = 0.9;
    mc.fault.seed = 5;
    mc.trials = 96;
    mc.replicas = 26;
    mc.pool = &pool;
    mc.kernels = {Kernel::Mult};
    for (const SimEngine engine : {SimEngine::Scalar, SimEngine::Batch}) {
        mc.engine = engine;
        const std::uint64_t before = draws.value();
        const FunctionalYieldReport r =
            measureFunctionalYield(core, cfg, mc);
        SCOPED_TRACE(engine == SimEngine::Batch ? "batch" : "scalar");
        EXPECT_EQ(r.fatalTrials, mc.trials);
        EXPECT_EQ(draws.value() - before, std::uint64_t(mc.trials));
    }
}

// ----------------------------------------------------------------
// Fault-free verification memo
// ----------------------------------------------------------------

/** A small MC whose fault-free verification the memo keys. */
FunctionalYieldConfig
smallMc()
{
    FunctionalYieldConfig mc;
    mc.fault.deviceYield = 0.999;
    mc.fault.seed = 3;
    mc.trials = 16;
    mc.kernels = {Kernel::Mult, Kernel::THold};
    return mc;
}

/** Run `fn` with tracing on; the Chrome trace it recorded. */
template <typename Fn>
std::string
traced(Fn &&fn)
{
    trace::clear();
    trace::enable();
    fn();
    trace::disable();
    std::ostringstream os;
    trace::write(os);
    trace::clear();
    return os.str();
}

const std::string verifySpan = "\"fault.golden_verify\"";

bool
sameReport(const FunctionalYieldReport &a, const FunctionalYieldReport &b)
{
    return a.trials == b.trials && a.fatalTrials == b.fatalTrials &&
           a.maskedTrials == b.maskedTrials &&
           a.benignTrials == b.benignTrials &&
           a.defectFreeTrials == b.defectFreeTrials;
}

TEST(VerifyMemo, ContentEqualNetlistHits)
{
    goldenVerifyMemoClear();
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist first = buildCore(cfg);
    const Netlist second = buildCore(cfg); // built apart, same content
    metrics::Counter &hits = metrics::counter("fault.golden_verify_hits");

    FunctionalYieldReport r1, r2;
    const std::uint64_t h0 = hits.value();
    const std::string t1 = traced(
        [&] { r1 = measureFunctionalYield(first, cfg, smallMc()); });
    EXPECT_EQ(hits.value(), h0);
    EXPECT_NE(t1.find(verifySpan), std::string::npos);

    const std::string t2 = traced(
        [&] { r2 = measureFunctionalYield(second, cfg, smallMc()); });
    EXPECT_EQ(hits.value(), h0 + 1);
    EXPECT_EQ(t2.find(verifySpan), std::string::npos);
    EXPECT_NE(t2.find("\"fault.mc\""), std::string::npos);
    EXPECT_TRUE(sameReport(r1, r2));
}

TEST(VerifyMemo, RewiredGateOrOtherKernelsMiss)
{
    goldenVerifyMemoClear();
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist core = buildCore(cfg);
    metrics::Counter &hits = metrics::counter("fault.golden_verify_hits");
    measureFunctionalYield(core, cfg, smallMc());

    // Swap the inputs of one two-input gate: the same function, but
    // not the same wiring, so it must be verified on its own.
    Netlist rewired = core;
    GateId g = 0;
    while (cellInputCount(rewired.gateKind(g)) != 2 ||
           cellIsSequential(rewired.gateKind(g)) ||
           rewired.gateKind(g) == CellKind::TSBUFX1 ||
           rewired.gateIn0(g) == rewired.gateIn1(g))
        ++g;
    rewired.setGate(g, rewired.gateKind(g), rewired.gateIn1(g),
                    rewired.gateIn0(g));
    ASSERT_NE(wiringFnv(rewired), wiringFnv(core));

    const std::uint64_t h0 = hits.value();
    const std::string t = traced(
        [&] { measureFunctionalYield(rewired, cfg, smallMc()); });
    EXPECT_EQ(hits.value(), h0);
    EXPECT_NE(t.find(verifySpan), std::string::npos);

    FunctionalYieldConfig mult = smallMc();
    mult.kernels = {Kernel::Mult};
    measureFunctionalYield(core, cfg, mult);
    EXPECT_EQ(hits.value(), h0);

    // Both are memoized now, next to the first key.
    measureFunctionalYield(rewired, cfg, smallMc());
    measureFunctionalYield(core, cfg, mult);
    measureFunctionalYield(core, cfg, smallMc());
    EXPECT_EQ(hits.value(), h0 + 3);
}

TEST(VerifyMemo, FailedVerificationIsNeverMemoized)
{
    goldenVerifyMemoClear();
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    Netlist broken = buildCore(cfg);
    // Feed every PC flop its own output: the PC stays at 0, the
    // spin detector halts the program at once, and Mult's product
    // is never written.
    for (NetId pc : corePorts(broken, cfg).pc) {
        const GateId flop = broken.netSoleDriver(pc);
        ASSERT_TRUE(cellIsSequential(broken.gateKind(flop)));
        broken.setGate(flop, broken.gateKind(flop), pc,
                       broken.gateIn1(flop));
    }
    metrics::Counter &hits = metrics::counter("fault.golden_verify_hits");
    const std::uint64_t h0 = hits.value();
    for (int call = 0; call < 3; ++call) {
        try {
            measureFunctionalYield(broken, cfg, smallMc());
            ADD_FAILURE() << "call " << call << " did not fail";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "fault-free core fails workload"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(hits.value(), h0);
}

TEST(VerifyMemo, ConcurrentCallsAgree)
{
    // Callers on several threads look up, verify, insert and clear
    // at once; every report matches the serial one, and afterwards
    // the memo still answers both keys.
    goldenVerifyMemoClear();
    const CoreConfig cfg = CoreConfig::standard(1, 8, 2);
    const Netlist core = buildCore(cfg);
    FunctionalYieldConfig mult = smallMc();
    mult.kernels = {Kernel::Mult};
    const FunctionalYieldReport both =
        measureFunctionalYield(core, cfg, smallMc());
    const FunctionalYieldReport one =
        measureFunctionalYield(core, cfg, mult);
    goldenVerifyMemoClear();

    constexpr unsigned threads = 4;
    std::vector<FunctionalYieldReport> got(2 * threads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            const Netlist copy = core;
            got[2 * t] = measureFunctionalYield(copy, cfg, smallMc());
            got[2 * t + 1] = measureFunctionalYield(copy, cfg, mult);
            if (t == 0)
                goldenVerifyMemoClear(); // races the other lookups
        });
    for (std::thread &th : pool)
        th.join();
    for (unsigned t = 0; t < threads; ++t) {
        EXPECT_TRUE(sameReport(got[2 * t], both)) << "thread " << t;
        EXPECT_TRUE(sameReport(got[2 * t + 1], one)) << "thread " << t;
    }

    metrics::Counter &hits = metrics::counter("fault.golden_verify_hits");
    measureFunctionalYield(core, cfg, smallMc());
    measureFunctionalYield(core, cfg, mult);
    const std::uint64_t h0 = hits.value();
    measureFunctionalYield(core, cfg, smallMc());
    measureFunctionalYield(core, cfg, mult);
    EXPECT_EQ(hits.value(), h0 + 2);
}

} // anonymous namespace
} // namespace printed
