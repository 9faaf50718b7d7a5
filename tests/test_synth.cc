/**
 * @file
 * Tests for the structural synthesis generators: every datapath
 * block is verified against a golden C++ model by gate-level
 * simulation, across parameterized width sweeps and randomized
 * operand sets (property-style testing).
 */

#include <gtest/gtest.h>

#include "common/bits.hh"
#include "common/rng.hh"
#include "netlist/netlist.hh"
#include "sim/simulator.hh"
#include "synth/blocks.hh"
#include "synth/opt.hh"

namespace printed
{
namespace
{

using namespace synth;

// ----------------------------------------------------------------
// Adders (parameterized over width)
// ----------------------------------------------------------------

class AdderWidthTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(AdderWidthTest, RippleAdderMatchesGolden)
{
    const unsigned width = GetParam();
    Netlist nl("adder");
    const Bus a = busInputs(nl, "a", width);
    const Bus b = busInputs(nl, "b", width);
    const NetId cin = nl.addInput("cin");
    const AddResult res = rippleAdder(nl, a, b, cin);
    busOutputs(nl, "sum", res.sum);
    nl.addOutput("cout", res.carryOut);
    nl.addOutput("ovf", res.overflow);

    GateSimulator sim(nl);
    Rng rng(width);
    for (int iter = 0; iter < 200; ++iter) {
        const std::uint64_t av = rng.bits(width);
        const std::uint64_t bv = rng.bits(width);
        const bool cv = rng.flip();
        sim.setBus(a, av);
        sim.setBus(b, bv);
        sim.setInput(cin, cv);
        sim.evaluate();

        const std::uint64_t full = av + bv + (cv ? 1 : 0);
        EXPECT_EQ(sim.readBus(res.sum), full & maskBits(width));
        EXPECT_EQ(sim.value(res.carryOut), bool(bit(full, width)));

        const std::int64_t sa = signExtend(av, width);
        const std::int64_t sb = signExtend(bv, width);
        const std::int64_t ssum = sa + sb + (cv ? 1 : 0);
        const bool ovf =
            ssum != signExtend(std::uint64_t(ssum), width);
        EXPECT_EQ(sim.value(res.overflow), ovf)
            << av << "+" << bv << "+" << cv << " width " << width;
    }
}

TEST_P(AdderWidthTest, AddSubMatchesGolden)
{
    const unsigned width = GetParam();
    Netlist nl("addsub");
    const Bus a = busInputs(nl, "a", width);
    const Bus b = busInputs(nl, "b", width);
    const NetId sub = nl.addInput("sub");
    const NetId cin = nl.addInput("cin");
    const AddResult res = rippleAddSub(nl, a, b, sub, cin);
    busOutputs(nl, "sum", res.sum);
    nl.addOutput("cout", res.carryOut);

    GateSimulator sim(nl);
    Rng rng(width * 17);
    for (int iter = 0; iter < 200; ++iter) {
        const std::uint64_t av = rng.bits(width);
        const std::uint64_t bv = rng.bits(width);
        const bool sv = rng.flip();
        // Convention: carry-in is the raw adder carry; for SUB the
        // caller passes !borrow (1 for plain SUB).
        const bool cv = rng.flip();
        sim.setBus(a, av);
        sim.setBus(b, bv);
        sim.setInput(sub, sv);
        sim.setInput(cin, cv);
        sim.evaluate();

        const std::uint64_t beff =
            sv ? (~bv & maskBits(width)) : bv;
        const std::uint64_t full = av + beff + (cv ? 1 : 0);
        EXPECT_EQ(sim.readBus(res.sum), full & maskBits(width));
        EXPECT_EQ(sim.value(res.carryOut), bool(bit(full, width)));
    }
}

TEST_P(AdderWidthTest, IncrementerMatchesGolden)
{
    const unsigned width = GetParam();
    Netlist nl("inc");
    const Bus a = busInputs(nl, "a", width);
    const Bus out = incrementer(nl, a);
    busOutputs(nl, "y", out);

    GateSimulator sim(nl);
    for (std::uint64_t v = 0; v < std::min<std::uint64_t>(
             256, std::uint64_t(1) << width); ++v) {
        sim.setBus(a, v);
        sim.evaluate();
        EXPECT_EQ(sim.readBus(out), (v + 1) & maskBits(width));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderWidthTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

// ----------------------------------------------------------------
// Logic, reduction, selection
// ----------------------------------------------------------------

TEST(SynthBlocks, BusLogicOps)
{
    Netlist nl;
    const Bus a = busInputs(nl, "a", 8);
    const Bus b = busInputs(nl, "b", 8);
    const Bus band = busAnd(nl, a, b);
    const Bus bor = busOr(nl, a, b);
    const Bus bxor = busXor(nl, a, b);
    const Bus bnot = busNot(nl, a);
    busOutputs(nl, "and", band);
    busOutputs(nl, "or", bor);
    busOutputs(nl, "xor", bxor);
    busOutputs(nl, "not", bnot);

    GateSimulator sim(nl);
    Rng rng(3);
    for (int iter = 0; iter < 100; ++iter) {
        const std::uint64_t av = rng.bits(8);
        const std::uint64_t bv = rng.bits(8);
        sim.setBus(a, av);
        sim.setBus(b, bv);
        sim.evaluate();
        EXPECT_EQ(sim.readBus(band), av & bv);
        EXPECT_EQ(sim.readBus(bor), av | bv);
        EXPECT_EQ(sim.readBus(bxor), av ^ bv);
        EXPECT_EQ(sim.readBus(bnot), ~av & 0xff);
    }
}

TEST(SynthBlocks, Reductions)
{
    Netlist nl;
    const Bus a = busInputs(nl, "a", 5);
    nl.addOutput("and", andReduce(nl, a));
    nl.addOutput("or", orReduce(nl, a));
    nl.addOutput("zero", isZero(nl, a));

    GateSimulator sim(nl);
    for (std::uint64_t v = 0; v < 32; ++v) {
        sim.setBus(a, v);
        sim.evaluate();
        EXPECT_EQ(sim.output("and"), v == 31);
        EXPECT_EQ(sim.output("or"), v != 0);
        EXPECT_EQ(sim.output("zero"), v == 0);
    }
}

TEST(SynthBlocks, Mux2AndBusMux)
{
    Netlist nl;
    const Bus a = busInputs(nl, "a", 4);
    const Bus b = busInputs(nl, "b", 4);
    const NetId sel = nl.addInput("sel");
    busOutputs(nl, "y", busMux2(nl, sel, a, b));
    const Bus y = {nl.outputNet("y[0]"), nl.outputNet("y[1]"),
                   nl.outputNet("y[2]"), nl.outputNet("y[3]")};

    GateSimulator sim(nl);
    sim.setBus(a, 0x5);
    sim.setBus(b, 0xa);
    sim.setInput(sel, false);
    sim.evaluate();
    EXPECT_EQ(sim.readBus(y), 0x5u);
    sim.setInput(sel, true);
    sim.evaluate();
    EXPECT_EQ(sim.readBus(y), 0xau);
}

TEST(SynthBlocks, OneHotMux)
{
    Netlist nl;
    const Bus a = busInputs(nl, "a", 4);
    const Bus b = busInputs(nl, "b", 4);
    const Bus c = busInputs(nl, "c", 4);
    const NetId sa = nl.addInput("sa");
    const NetId sb = nl.addInput("sb");
    const NetId sc = nl.addInput("sc");
    const Bus y = busMuxOneHot(nl, {sa, sb, sc}, {a, b, c});
    busOutputs(nl, "y", y);

    GateSimulator sim(nl);
    sim.setBus(a, 1);
    sim.setBus(b, 2);
    sim.setBus(c, 3);
    sim.setInput(sa, false);
    sim.setInput(sb, true);
    sim.setInput(sc, false);
    sim.evaluate();
    EXPECT_EQ(sim.readBus(y), 2u);
    sim.setInput(sb, false);
    sim.setInput(sc, true);
    sim.evaluate();
    EXPECT_EQ(sim.readBus(y), 3u);
    sim.setInput(sc, false);
    sim.evaluate();
    EXPECT_EQ(sim.readBus(y), 0u); // nothing selected
}

TEST(SynthBlocks, BinaryDecoder)
{
    Netlist nl;
    const Bus sel = busInputs(nl, "sel", 3);
    const auto hot = binaryDecoder(nl, sel);
    ASSERT_EQ(hot.size(), 8u);
    for (std::size_t i = 0; i < hot.size(); ++i)
        nl.addOutput("h" + std::to_string(i), hot[i]);

    GateSimulator sim(nl);
    for (std::uint64_t v = 0; v < 8; ++v) {
        sim.setBus(sel, v);
        sim.evaluate();
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(sim.value(hot[i]), i == v);
    }
}

TEST(SynthBlocks, DecoderWithLimit)
{
    Netlist nl;
    const Bus sel = busInputs(nl, "sel", 4);
    const auto hot = binaryDecoder(nl, sel, 10);
    EXPECT_EQ(hot.size(), 10u);
}

TEST(SynthBlocks, EqualsConst)
{
    Netlist nl;
    const Bus a = busInputs(nl, "a", 6);
    nl.addOutput("eq", equalsConst(nl, a, 42));
    GateSimulator sim(nl);
    for (std::uint64_t v = 0; v < 64; ++v) {
        sim.setBus(a, v);
        sim.evaluate();
        EXPECT_EQ(sim.output("eq"), v == 42);
    }
}

// ----------------------------------------------------------------
// Rotates
// ----------------------------------------------------------------

TEST(SynthBlocks, RotatesMatchGolden)
{
    Netlist nl;
    const Bus a = busInputs(nl, "a", 8);
    const NetId cin = nl.addInput("cin");
    const auto rl = rotateLeft1(a);
    const auto rlc = rotateLeft1Carry(a, cin);
    const auto rr = rotateRight1(a);
    const auto rrc = rotateRight1Carry(a, cin);
    const auto rra = shiftRightArith1(a);
    busOutputs(nl, "rl", rl.data);
    busOutputs(nl, "rlc", rlc.data);
    busOutputs(nl, "rr", rr.data);
    busOutputs(nl, "rrc", rrc.data);
    busOutputs(nl, "rra", rra.data);

    GateSimulator sim(nl);
    Rng rng(11);
    for (int iter = 0; iter < 100; ++iter) {
        const std::uint64_t v = rng.bits(8);
        const bool cv = rng.flip();
        sim.setBus(a, v);
        sim.setInput(cin, cv);
        sim.evaluate();

        EXPECT_EQ(sim.readBus(rl.data),
                  ((v << 1) | (v >> 7)) & 0xff);
        EXPECT_EQ(sim.value(rl.carryOut), bool(v >> 7));
        EXPECT_EQ(sim.readBus(rlc.data),
                  ((v << 1) | (cv ? 1 : 0)) & 0xff);
        EXPECT_EQ(sim.readBus(rr.data),
                  ((v >> 1) | ((v & 1) << 7)) & 0xff);
        EXPECT_EQ(sim.value(rr.carryOut), bool(v & 1));
        EXPECT_EQ(sim.readBus(rrc.data),
                  ((v >> 1) | ((cv ? 1ull : 0ull) << 7)) & 0xff);
        EXPECT_EQ(sim.readBus(rra.data),
                  std::uint64_t(std::uint8_t(std::int8_t(v) >> 1)));
    }
}

// ----------------------------------------------------------------
// Registers
// ----------------------------------------------------------------

TEST(SynthBlocks, RegisterEnableHoldsValue)
{
    Netlist nl;
    const Bus d = busInputs(nl, "d", 4);
    const NetId en = nl.addInput("en");
    const NetId rn = nl.addInput("rn");
    const Bus q = registerEnable(nl, d, en, rn);
    busOutputs(nl, "q", q);

    GateSimulator sim(nl);
    sim.setInput(rn, true);
    sim.setBus(d, 0x9);
    sim.setInput(en, true);
    sim.cycle();
    EXPECT_EQ(sim.readBus(q), 0x9u);

    sim.setBus(d, 0x3);
    sim.setInput(en, false);
    sim.cycle();
    EXPECT_EQ(sim.readBus(q), 0x9u); // held

    sim.setInput(en, true);
    sim.cycle();
    EXPECT_EQ(sim.readBus(q), 0x3u);

    sim.setInput(rn, false);
    sim.evaluate();
    EXPECT_EQ(sim.readBus(q), 0x0u); // async reset
}

// ----------------------------------------------------------------
// Optimizer: equivalence-preserving cleanup
// ----------------------------------------------------------------

TEST(Optimizer, FoldsConstantAdder)
{
    // An adder with one constant operand should shrink markedly.
    Netlist nl("pc_inc");
    const Bus a = busInputs(nl, "a", 8);
    const Bus one = busConst(nl, 8, 1);
    const AddResult res = rippleAdder(nl, a, one, nl.constZero());
    busOutputs(nl, "y", res.sum);

    const std::size_t before = nl.gateCount();
    const OptStats stats = optimize(nl);
    EXPECT_LE(stats.gatesAfter, before / 2);

    GateSimulator sim(nl);
    const Bus y_out = res.sum; // nets survive optimization
    for (std::uint64_t v = 0; v < 256; ++v) {
        sim.setBus(a, v);
        sim.evaluate();
        std::uint64_t got = 0;
        for (std::size_t i = 0; i < 8; ++i)
            if (sim.value(nl.outputNet("y[" + std::to_string(i) +
                                       "]")))
                got |= 1u << i;
        EXPECT_EQ(got, (v + 1) & 0xff);
    }
    (void)y_out;
}

TEST(Optimizer, RemovesInverterPairs)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId x = nl.addGate(CellKind::INVX1, a);
    const NetId y = nl.addGate(CellKind::INVX1, x);
    nl.addOutput("y", y);
    const OptStats stats = optimize(nl);
    EXPECT_EQ(stats.gatesAfter, 0u);
    // Output must now be wired straight to the input.
    EXPECT_EQ(nl.outputNet("y"), a);
}

TEST(Optimizer, SharesDuplicateGates)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId x = nl.addGate(CellKind::AND2X1, a, b);
    const NetId y = nl.addGate(CellKind::AND2X1, b, a); // commuted dup
    nl.addOutput("x", x);
    nl.addOutput("y", y);
    const OptStats stats = optimize(nl);
    EXPECT_EQ(stats.gatesAfter, 1u);
    EXPECT_EQ(nl.outputNet("x"), nl.outputNet("y"));
}

TEST(Optimizer, SweepsDeadLogic)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    nl.addGate(CellKind::INVX1, a); // dead
    const NetId live = nl.addGate(CellKind::INVX1, a);
    nl.addOutput("y", live);
    const OptStats stats = optimize(nl);
    EXPECT_EQ(stats.gatesAfter, 1u);
    EXPECT_GE(stats.deadRemoved, 1u);
}

TEST(Optimizer, FoldsWhatAnEarlierIterationLeft)
{
    // Iteration 1 turns NAND2(1, 1) into INV(1), iteration 2 folds
    // that INV to 0 and sweeps it, and only iteration 3 finds nothing
    // left to do.
    Netlist nl;
    const NetId one = nl.constOne();
    nl.addOutput("q", nl.addFlop(nl.addGate(CellKind::NAND2X1, one, one)));
    const OptStats stats = optimize(nl);
    EXPECT_EQ(stats.iterations, 3u);
    EXPECT_EQ(stats.constFolded, 2u);
    EXPECT_EQ(stats.deadRemoved, 1u);
    ASSERT_EQ(nl.gateCount(), 1u);
    EXPECT_EQ(nl.gateKind(0), CellKind::DFFX1);
    EXPECT_EQ(nl.gateIn0(0), nl.constZeroId());
}

TEST(Optimizer, PreservesRandomLogicFunction)
{
    // Property test: build a random DAG of gates over 6 inputs,
    // snapshot its truth table, optimize, and compare.
    Rng rng(2024);
    for (int trial = 0; trial < 10; ++trial) {
        Netlist nl("random");
        const Bus in = busInputs(nl, "x", 6);
        std::vector<NetId> pool(in.begin(), in.end());
        pool.push_back(nl.constZero());
        pool.push_back(nl.constOne());
        static const CellKind kinds[] = {
            CellKind::INVX1, CellKind::NAND2X1, CellKind::NOR2X1,
            CellKind::AND2X1, CellKind::OR2X1, CellKind::XOR2X1,
            CellKind::XNOR2X1};
        for (int g = 0; g < 40; ++g) {
            const CellKind kind = kinds[rng.below(7)];
            const NetId a = pool[rng.below(pool.size())];
            if (cellInputCount(kind) == 1) {
                pool.push_back(nl.addGate(kind, a));
            } else {
                const NetId b = pool[rng.below(pool.size())];
                pool.push_back(nl.addGate(kind, a, b));
            }
        }
        nl.addOutput("y", pool.back());

        std::array<bool, 64> truth{};
        {
            GateSimulator sim(nl);
            for (std::uint64_t v = 0; v < 64; ++v) {
                sim.setBus(in, v);
                sim.evaluate();
                truth[v] = sim.output("y");
            }
        }
        optimize(nl);
        {
            GateSimulator sim(nl);
            for (std::uint64_t v = 0; v < 64; ++v) {
                sim.setBus(in, v);
                sim.evaluate();
                EXPECT_EQ(sim.output("y"), truth[v])
                    << "trial " << trial << " input " << v;
            }
        }
    }
}

} // anonymous namespace
} // namespace printed
