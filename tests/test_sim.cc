/**
 * @file
 * Unit tests for the levelized gate-level simulator, including
 * parameterized truth-table sweeps for every combinational cell.
 */

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <string>

#include "common/logging.hh"
#include "common/rng.hh"
#include "netlist/netlist.hh"
#include "sim/batch_simulator.hh"
#include "sim/simulator.hh"

namespace printed
{
namespace
{

// ----------------------------------------------------------------
// Truth tables for every 2-input combinational cell
// ----------------------------------------------------------------

struct TruthCase
{
    CellKind kind;
    // expected output for inputs (a,b) = 00, 01, 10, 11 where the
    // first bit listed is a.
    std::array<bool, 4> expected;
};

class CellTruthTest : public ::testing::TestWithParam<TruthCase>
{};

TEST_P(CellTruthTest, MatchesTruthTable)
{
    const TruthCase &tc = GetParam();
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    nl.addOutput("y", nl.addGate(tc.kind, a, b));
    GateSimulator sim(nl);

    int idx = 0;
    for (bool av : {false, true}) {
        for (bool bv : {false, true}) {
            sim.setInput(a, av);
            sim.setInput(b, bv);
            sim.evaluate();
            EXPECT_EQ(sim.output("y"), tc.expected[idx])
                << cellName(tc.kind) << " a=" << av << " b=" << bv;
            ++idx;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTwoInputCells, CellTruthTest,
    ::testing::Values(
        TruthCase{CellKind::NAND2X1, {true, true, true, false}},
        TruthCase{CellKind::NOR2X1, {true, false, false, false}},
        TruthCase{CellKind::AND2X1, {false, false, false, true}},
        TruthCase{CellKind::OR2X1, {false, true, true, true}},
        TruthCase{CellKind::XOR2X1, {false, true, true, false}},
        TruthCase{CellKind::XNOR2X1, {true, false, false, true}}),
    [](const auto &info) { return cellName(info.param.kind); });

TEST(GateSimulator, Inverter)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    nl.addOutput("y", nl.addGate(CellKind::INVX1, a));
    GateSimulator sim(nl);
    sim.setInput(a, false);
    sim.evaluate();
    EXPECT_TRUE(sim.output("y"));
    sim.setInput(a, true);
    sim.evaluate();
    EXPECT_FALSE(sim.output("y"));
}

TEST(GateSimulator, Constants)
{
    Netlist nl;
    const NetId one = nl.constOne();
    const NetId zero = nl.constZero();
    nl.addOutput("or", nl.addGate(CellKind::OR2X1, one, zero));
    nl.addOutput("and", nl.addGate(CellKind::AND2X1, one, zero));
    GateSimulator sim(nl);
    sim.evaluate();
    EXPECT_TRUE(sim.output("or"));
    EXPECT_FALSE(sim.output("and"));
}

// ----------------------------------------------------------------
// Sequential behavior
// ----------------------------------------------------------------

TEST(GateSimulator, DffDelaysOneCycle)
{
    Netlist nl;
    const NetId d = nl.addInput("d");
    nl.addOutput("q", nl.addFlop(d));
    GateSimulator sim(nl);

    sim.setInput(d, true);
    sim.evaluate();
    EXPECT_FALSE(sim.output("q")); // not clocked yet
    sim.step();
    sim.evaluate();
    EXPECT_TRUE(sim.output("q"));

    sim.setInput(d, false);
    sim.evaluate();
    EXPECT_TRUE(sim.output("q"));
    sim.step();
    sim.evaluate();
    EXPECT_FALSE(sim.output("q"));
}

TEST(GateSimulator, DffnrAsyncClear)
{
    Netlist nl;
    const NetId d = nl.addInput("d");
    const NetId rn = nl.addInput("rn");
    nl.addOutput("q", nl.addFlopReset(d, rn));
    GateSimulator sim(nl);

    sim.setInput(d, true);
    sim.setInput(rn, true);
    sim.cycle();
    EXPECT_TRUE(sim.output("q"));

    // Async clear: q drops during evaluate, without a clock edge.
    sim.setInput(rn, false);
    sim.evaluate();
    EXPECT_FALSE(sim.output("q"));

    // Held in reset across edges.
    sim.step();
    sim.evaluate();
    EXPECT_FALSE(sim.output("q"));

    sim.setInput(rn, true);
    sim.cycle();
    EXPECT_TRUE(sim.output("q"));
}

TEST(GateSimulator, SrLatch)
{
    Netlist nl;
    const NetId s = nl.addInput("s");
    const NetId r = nl.addInput("r");
    nl.addOutput("q", nl.addGate(CellKind::LATCHX1, s, r));
    GateSimulator sim(nl);

    sim.setInput(s, true);
    sim.setInput(r, false);
    sim.cycle();
    EXPECT_TRUE(sim.output("q"));

    sim.setInput(s, false);
    sim.cycle();
    EXPECT_TRUE(sim.output("q")); // holds

    sim.setInput(r, true);
    sim.cycle();
    EXPECT_FALSE(sim.output("q"));

    sim.setInput(s, true);
    sim.evaluate();
    EXPECT_THROW(sim.step(), SimulationError); // S = R = 1 illegal
}

TEST(GateSimulator, CounterCountsToEight)
{
    // 3-bit ripple-ish counter built by hand: q <= q + 1 using XOR
    // carry chain; checks multi-flop feedback through makeFeedback.
    Netlist nl;
    Bus q_fb = {nl.makeFeedback(), nl.makeFeedback(),
                nl.makeFeedback()};
    const NetId c0 = nl.constOne();
    const NetId s0 = nl.addGate(CellKind::XOR2X1, q_fb[0], c0);
    const NetId c1 = nl.addGate(CellKind::AND2X1, q_fb[0], c0);
    const NetId s1 = nl.addGate(CellKind::XOR2X1, q_fb[1], c1);
    const NetId c2 = nl.addGate(CellKind::AND2X1, q_fb[1], c1);
    const NetId s2 = nl.addGate(CellKind::XOR2X1, q_fb[2], c2);
    Bus q = {nl.addFlop(s0), nl.addFlop(s1), nl.addFlop(s2)};
    for (int i = 0; i < 3; ++i)
        nl.resolveFeedback(q_fb[i], q[i]);
    nl.addOutput("q0", q[0]);
    nl.addOutput("q1", q[1]);
    nl.addOutput("q2", q[2]);

    GateSimulator sim(nl);
    for (unsigned i = 0; i < 16; ++i) {
        sim.evaluate();
        EXPECT_EQ(sim.readBus(q), i % 8) << "cycle " << i;
        sim.step();
    }
}

// ----------------------------------------------------------------
// Tri-state buses
// ----------------------------------------------------------------

TEST(GateSimulator, TristateBusSelects)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId sel = nl.addInput("sel");
    const NetId nsel = nl.addGate(CellKind::INVX1, sel);
    const NetId bus = nl.addNet("bus");
    nl.addTristate(a, nsel, bus);
    nl.addTristate(b, sel, bus);
    nl.addOutput("bus", bus);
    GateSimulator sim(nl);

    sim.setInput(a, true);
    sim.setInput(b, false);
    sim.setInput(sel, false);
    sim.evaluate();
    EXPECT_TRUE(sim.output("bus"));
    sim.setInput(sel, true);
    sim.evaluate();
    EXPECT_FALSE(sim.output("bus"));
}

TEST(GateSimulator, TristateConflictThrows)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId en = nl.constOne();
    const NetId bus = nl.addNet("bus");
    nl.addTristate(a, en, bus);
    nl.addTristate(b, en, bus);
    nl.addOutput("bus", bus);
    GateSimulator sim(nl);
    sim.setInput(a, true);
    sim.setInput(b, false);
    EXPECT_THROW(sim.evaluate(), SimulationError);
}

// ----------------------------------------------------------------
// Activity accounting
// ----------------------------------------------------------------

TEST(GateSimulator, TogglesCounted)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    nl.addOutput("y", nl.addGate(CellKind::INVX1, a));
    GateSimulator sim(nl);

    // After reset all nets are 0; first evaluate raises y -> toggle.
    sim.evaluate();
    EXPECT_EQ(sim.totalToggles(), 1u);
    sim.setInput(a, true);
    sim.evaluate();
    EXPECT_EQ(sim.totalToggles(), 2u);
    sim.setInput(a, true); // no change
    sim.evaluate();
    EXPECT_EQ(sim.totalToggles(), 2u);
}

TEST(GateSimulator, ActivityFactorOfToggleFlop)
{
    // q <= !q toggles every cycle: activity factor ~2 toggles per
    // cycle over 2 gates (INV + DFF both toggle every cycle) = 1.0.
    Netlist nl;
    const NetId fb = nl.makeFeedback();
    const NetId next = nl.addGate(CellKind::INVX1, fb);
    const NetId q = nl.addFlop(next);
    nl.resolveFeedback(fb, q);
    nl.addOutput("q", q);

    GateSimulator sim(nl);
    for (int i = 0; i < 100; ++i)
        sim.cycle();
    EXPECT_NEAR(sim.activityFactor(), 1.0, 0.05);
}

// ----------------------------------------------------------------
// Illegal electrical states raise catchable SimulationError
// ----------------------------------------------------------------

TEST(GateSimulator, BusContentionThrowsSimulationError)
{
    // Two enabled tri-state buffers driving opposite values. The
    // fault-injection Monte Carlo must survive this, so it is a
    // catchable SimulationError naming the gate and net, not a
    // process-level panic.
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId en = nl.addInput("en");
    const NetId bus = nl.addNet("shared_bus");
    nl.addTristate(a, en, bus);
    nl.addTristate(b, en, bus);
    nl.addOutput("y", bus);

    GateSimulator sim(nl);
    sim.setInput(a, true);
    sim.setInput(b, false);
    sim.setInput(en, true);
    try {
        sim.evaluate();
        FAIL() << "expected SimulationError";
    } catch (const SimulationError &e) {
        EXPECT_NE(std::string(e.what()).find("conflict"),
                  std::string::npos);
        EXPECT_NE(e.cell().find("TSBUFX1"), std::string::npos);
        EXPECT_NE(e.net().find("shared_bus"), std::string::npos);
    }

    // Non-conflicting drive works again afterwards.
    sim.setInput(b, true);
    sim.evaluate();
    EXPECT_TRUE(sim.output("y"));
}

TEST(GateSimulator, LatchSetResetThrowsSimulationError)
{
    Netlist nl;
    const NetId s = nl.addInput("s");
    const NetId r = nl.addInput("r");
    const NetId q = nl.addGate(CellKind::LATCHX1, s, r);
    nl.addOutput("q", q);

    GateSimulator sim(nl);
    sim.setInput(s, true);
    sim.setInput(r, false);
    sim.cycle();
    EXPECT_TRUE(sim.output("q"));

    sim.setInput(r, true); // S=R=1 is electrically illegal
    sim.evaluate();
    try {
        sim.step();
        FAIL() << "expected SimulationError";
    } catch (const SimulationError &e) {
        EXPECT_NE(std::string(e.what()).find("S=R=1"),
                  std::string::npos);
        EXPECT_NE(e.cell().find("LATCHX1"), std::string::npos);
        EXPECT_FALSE(e.net().empty());
    }

    // The latch holds state and keeps working after the error.
    sim.setInput(s, false);
    sim.cycle();
    EXPECT_FALSE(sim.output("q"));
}

// ----------------------------------------------------------------
// 64-lane bit-parallel simulator
// ----------------------------------------------------------------

constexpr unsigned kLanes = BatchGateSimulator::laneCount;

TEST(BatchGateSimulator, LanesEvaluateIndependently)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    nl.addOutput("y", nl.addGate(CellKind::INVX1, a));
    BatchGateSimulator sim(nl);

    const std::uint64_t pattern = 0xdeadbeefcafef00dULL;
    sim.setInput(a, pattern);
    sim.evaluate();
    EXPECT_EQ(sim.outputWord("y"), ~pattern);
    for (unsigned lane = 0; lane < kLanes; ++lane)
        EXPECT_EQ(sim.value(a, lane), bool((pattern >> lane) & 1));
}

TEST(BatchGateSimulator, BusLaneRoundTrip)
{
    Netlist nl;
    Bus in;
    for (int i = 0; i < 8; ++i)
        in.push_back(nl.addInput("i" + std::to_string(i)));
    nl.addOutput("msb", in.back());
    BatchGateSimulator sim(nl);

    for (unsigned lane = 0; lane < kLanes; ++lane)
        sim.setBusLane(in, lane, (0x37 + lane) & 0xff);
    for (unsigned lane = 0; lane < kLanes; ++lane)
        EXPECT_EQ(sim.readBusLane(in, lane), (0x37 + lane) & 0xff);

    sim.setBusAll(in, 0x5a);
    for (unsigned lane = 0; lane < kLanes; ++lane)
        EXPECT_EQ(sim.readBusLane(in, lane), 0x5au);
}

TEST(BatchGateSimulator, BusConflictKillsOnlyConflictingLanes)
{
    // Two always-enabled tri-state drivers: lanes where a != b are
    // electrically broken and must be killed; the rest continue.
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId en = nl.constOne();
    const NetId bus = nl.addNet("bus");
    nl.addTristate(a, en, bus);
    nl.addTristate(b, en, bus);
    nl.addOutput("y", bus);
    BatchGateSimulator sim(nl);

    const std::uint64_t av = 0xff00ff00ff00ff00ULL;
    const std::uint64_t bv = 0xf0f0f0f0f0f0f0f0ULL;
    sim.setInput(a, av);
    sim.setInput(b, bv);
    sim.evaluate();

    const LaneMask conflict = av ^ bv;
    EXPECT_EQ(sim.killedLanes(), conflict);
    EXPECT_EQ(sim.observedLanes(), ~conflict);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        if ((conflict >> lane) & 1) {
            EXPECT_EQ(sim.killReason(lane),
                      BatchGateSimulator::KillReason::BusConflict);
        } else {
            EXPECT_EQ(sim.killReason(lane),
                      BatchGateSimulator::KillReason::None);
            EXPECT_EQ(sim.value(bus, lane),
                      bool((av >> lane) & 1));
        }
    }
}

TEST(BatchGateSimulator, LatchSetResetKillsOnlyIllegalLanes)
{
    Netlist nl;
    const NetId s = nl.addInput("s");
    const NetId r = nl.addInput("r");
    nl.addOutput("q", nl.addGate(CellKind::LATCHX1, s, r));
    BatchGateSimulator sim(nl);

    const std::uint64_t sv = 0xaaaaaaaaaaaaaaaaULL;
    const std::uint64_t rv = 0xccccccccccccccccULL;
    sim.setInput(s, sv);
    sim.setInput(r, rv);
    sim.cycle();

    const LaneMask illegal = sv & rv;
    EXPECT_EQ(sim.killedLanes(), illegal);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        if ((illegal >> lane) & 1)
            EXPECT_EQ(sim.killReason(lane),
                      BatchGateSimulator::KillReason::LatchSetReset);
        else
            EXPECT_EQ(sim.outputWord("q") >> lane & 1,
                      (sv >> lane) & 1);
    }
}

TEST(BatchGateSimulator, RetiredLanesStopCounting)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId y = nl.addGate(CellKind::INVX1, a);
    nl.addOutput("y", y);
    BatchGateSimulator sim(nl);

    const std::vector<InjectedFault> stuck1 = {
        {0, FaultKind::StuckAt1, invalidNet}};
    sim.setLaneFaults(0, stuck1);
    sim.setLaneFaults(1, stuck1);
    sim.retireLanes(LaneMask(1) << 0);

    sim.setInputAll(a, true); // fault-free y = 0, forced to 1
    sim.evaluate();
    EXPECT_EQ(sim.faultActivations(0), 0u) << "retired lane counted";
    EXPECT_EQ(sim.faultActivations(1), 1u);
    // The forced value itself flows in every lane (garbage in
    // retired lanes is tolerated, not masked out of the data path).
    EXPECT_EQ(sim.outputWord("y") & 3, 3u);
}

// ----------------------------------------------------------------
// Batch vs scalar equivalence fuzz
// ----------------------------------------------------------------

struct FuzzCircuit
{
    Netlist nl;
    std::vector<NetId> inputs;
    std::vector<NetId> nets;
};

/**
 * Random feed-forward netlist over every combinational kind, plus
 * (per round) sequential cells and tri-state buses of two or three
 * drivers whose random enables can legitimately conflict.
 */
FuzzCircuit
makeFuzzCircuit(Rng &rng, bool tristate, bool seq)
{
    FuzzCircuit c;
    const unsigned nIn = 3 + unsigned(rng.below(3));
    for (unsigned i = 0; i < nIn; ++i)
        c.inputs.push_back(c.nl.addInput("in" + std::to_string(i)));
    c.nets = c.inputs;
    c.nets.push_back(c.nl.constOne());
    c.nets.push_back(c.nl.constZero());
    auto pick = [&] { return c.nets[rng.below(c.nets.size())]; };

    static constexpr CellKind comb[] = {
        CellKind::INVX1,  CellKind::NAND2X1, CellKind::NOR2X1,
        CellKind::AND2X1, CellKind::OR2X1,   CellKind::XOR2X1,
        CellKind::XNOR2X1};
    const unsigned nGates = 24 + unsigned(rng.below(24));
    for (unsigned i = 0; i < nGates; ++i) {
        const std::uint64_t roll = rng.below(12);
        if (seq && roll == 0) {
            c.nets.push_back(c.nl.addFlop(pick()));
        } else if (seq && roll == 1) {
            c.nets.push_back(c.nl.addFlopReset(pick(), pick()));
        } else if (seq && roll == 2) {
            c.nets.push_back(
                c.nl.addGate(CellKind::LATCHX1, pick(), pick()));
        } else if (tristate && roll == 3) {
            const NetId bus = c.nl.addNet();
            const unsigned drivers = 2 + unsigned(rng.below(2));
            for (unsigned d = 0; d < drivers; ++d)
                c.nl.addTristate(pick(), pick(), bus);
            c.nets.push_back(bus);
        } else {
            const CellKind k = comb[rng.below(7)];
            c.nets.push_back(
                k == CellKind::INVX1
                    ? c.nl.addGate(k, pick())
                    : c.nl.addGate(k, pick(), pick()));
        }
    }
    c.nl.addOutput("y", c.nets.back());
    return c;
}

/** Random defect map in the same shape drawDefects() produces. */
std::vector<InjectedFault>
makeFuzzFaults(Rng &rng, const Netlist &nl)
{
    std::vector<InjectedFault> faults;
    const unsigned n = unsigned(rng.below(4)); // 0..3 defects
    for (unsigned i = 0; i < n; ++i) {
        const GateId gi = GateId(rng.below(nl.gateCount()));
        const Gate &g = nl.gate(gi);
        InjectedFault f;
        f.gate = gi;
        const std::uint64_t kind = rng.below(3);
        if (kind == 2) {
            f.kind = FaultKind::BridgeInput;
            f.bridge = (g.in1 != invalidNet && rng.flip()) ? g.in1
                                                           : g.in0;
        } else {
            f.kind = kind ? FaultKind::StuckAt1
                          : FaultKind::StuckAt0;
        }
        faults.push_back(f);
    }
    return faults;
}

TEST(BatchScalarEquivalence, RandomNetlistAndFaultFuzz)
{
    // For every lane L the batch engine must reproduce exactly what
    // a scalar simulator computes from lane L's inputs and lane L's
    // fault overlay: per-net values each cycle, fault activations,
    // and a kill in the same cycle the scalar engine throws. Batch
    // per-gate toggles are aggregated popcounts, so they must equal
    // the sum of the scalar per-lane counts (counting stops at the
    // kill/throw point in both engines, so this holds even when
    // lanes die).
    for (unsigned round = 0; round < 32; ++round) {
        Rng rng(0x5eed0000 + round);
        const bool tristate = round & 1;
        const bool seq = round & 2;
        FuzzCircuit c = makeFuzzCircuit(rng, tristate, seq);

        BatchGateSimulator batch(c.nl);
        std::deque<GateSimulator> scalars;
        std::array<std::vector<InjectedFault>, kLanes> lfaults;
        for (unsigned lane = 0; lane < kLanes; ++lane) {
            lfaults[lane] = makeFuzzFaults(rng, c.nl);
            scalars.emplace_back(c.nl);
            scalars.back().setFaults(lfaults[lane]);
            batch.setLaneFaults(lane, lfaults[lane]);
        }

        std::array<bool, kLanes> dead{};
        for (unsigned cy = 0; cy < 12; ++cy) {
            for (NetId in : c.inputs) {
                const std::uint64_t w = rng.next();
                batch.setInput(in, w);
                for (unsigned lane = 0; lane < kLanes; ++lane)
                    if (!dead[lane])
                        scalars[lane].setInput(in,
                                               (w >> lane) & 1);
            }
            const LaneMask before = batch.killedLanes();
            batch.cycle();
            const LaneMask newly = batch.killedLanes() & ~before;
            for (unsigned lane = 0; lane < kLanes; ++lane) {
                if (dead[lane])
                    continue;
                bool threw = false;
                try {
                    scalars[lane].cycle();
                } catch (const SimulationError &) {
                    threw = true;
                }
                ASSERT_EQ(bool((newly >> lane) & 1), threw)
                    << "round " << round << " lane " << lane
                    << " cycle " << cy;
                if (threw) {
                    dead[lane] = true;
                    continue;
                }
                for (NetId n = 0; n < c.nl.netCount(); ++n)
                    ASSERT_EQ(batch.value(n, lane),
                              scalars[lane].value(n))
                        << "round " << round << " lane " << lane
                        << " cycle " << cy << " net " << n;
            }
        }

        for (unsigned lane = 0; lane < kLanes; ++lane)
            EXPECT_EQ(batch.faultActivations(lane),
                      scalars[lane].faultActivations())
                << "round " << round << " lane " << lane;
        for (GateId g = 0; g < c.nl.gateCount(); ++g) {
            std::uint64_t sum = 0;
            for (unsigned lane = 0; lane < kLanes; ++lane)
                sum += scalars[lane].toggles(g);
            EXPECT_EQ(batch.toggles(g), sum)
                << "round " << round << " gate " << g;
        }
    }
}

} // anonymous namespace
} // namespace printed
