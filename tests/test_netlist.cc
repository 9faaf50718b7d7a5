/**
 * @file
 * Unit tests for the gate-level netlist IR.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/generator.hh"
#include "dse/sweep.hh"
#include "netlist/netlist.hh"
#include "netlist/stats.hh"
#include "progspec/analyze.hh"
#include "synth/harden.hh"
#include "synth/opt.hh"
#include "workloads/kernels.hh"

namespace printed
{
namespace
{

TEST(Netlist, BuildSimpleGate)
{
    Netlist nl("t");
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId y = nl.addGate(CellKind::NAND2X1, a, b);
    nl.addOutput("y", y);

    EXPECT_EQ(nl.gateCount(), 1u);
    EXPECT_EQ(nl.inputs().size(), 2u);
    EXPECT_EQ(nl.outputs().size(), 1u);
    EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, PortLookup)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    nl.addOutput("y", nl.addGate(CellKind::INVX1, a));
    EXPECT_EQ(nl.inputNet("a"), a);
    EXPECT_THROW(nl.inputNet("nope"), FatalError);
    EXPECT_THROW(nl.outputNet("nope"), FatalError);
}

TEST(Netlist, UndrivenNetFailsValidation)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId floating = nl.addNet("floating");
    nl.addOutput("y", nl.addGate(CellKind::AND2X1, a, floating));
    EXPECT_THROW(nl.validate(), PanicError);
}

TEST(Netlist, SingleInputCellRejectsTwoInputs)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    try {
        nl.addGate(CellKind::INVX1, a, b);
        FAIL() << "expected PanicError";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "addGate: INVX1 takes one input");
    }
}

TEST(Netlist, TwoInputCellRequiresTwoInputs)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    try {
        nl.addGate(CellKind::NAND2X1, a);
        FAIL() << "expected PanicError";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "addGate: NAND2X1 needs two inputs");
    }
}

TEST(Netlist, CombinationalCycleDetected)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    // Build a cycle through the feedback mechanism, without a flop.
    const NetId fb = nl.makeFeedback();
    const NetId y = nl.addGate(CellKind::AND2X1, a, fb);
    const NetId z = nl.addGate(CellKind::INVX1, y);
    nl.resolveFeedback(fb, z);
    nl.addOutput("y", y);
    EXPECT_THROW(nl.levelize(), FatalError);
}

TEST(Netlist, FlopBreaksCycle)
{
    Netlist nl;
    const NetId fb = nl.makeFeedback();
    const NetId next = nl.addGate(CellKind::INVX1, fb);
    const NetId q = nl.addFlop(next);
    nl.resolveFeedback(fb, q);
    nl.addOutput("q", q);
    EXPECT_NO_THROW(nl.validate());
    EXPECT_EQ(nl.levelize().size(), 1u); // only the INV
    EXPECT_EQ(nl.flopCount(), 1u);
}

TEST(Netlist, ConstantNetsAreCached)
{
    Netlist nl;
    EXPECT_EQ(nl.constZero(), nl.constZero());
    EXPECT_EQ(nl.constOne(), nl.constOne());
    EXPECT_NE(nl.constZero(), nl.constOne());
}

TEST(Netlist, TristateBusSharing)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId ena = nl.addInput("ena");
    const NetId enb = nl.addInput("enb");
    const NetId bus = nl.addNet("bus");
    nl.addTristate(a, ena, bus);
    nl.addTristate(b, enb, bus);
    nl.addOutput("bus", bus);
    EXPECT_NO_THROW(nl.validate());
    EXPECT_EQ(nl.netDriverCount(bus), 2u);
    std::vector<GateId> drivers;
    nl.forEachDriver(bus, [&](GateId g) {
        drivers.push_back(g);
    });
    EXPECT_EQ(drivers, (std::vector<GateId>{0, 1}));
}

TEST(Netlist, NonTristateSharingRejected)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId en = nl.addInput("en");
    const NetId y = nl.addGate(CellKind::INVX1, a);
    nl.addTristate(a, en, y); // sharing with an INV output
    nl.addOutput("y", y);
    EXPECT_THROW(nl.validate(), PanicError);
}

TEST(Netlist, HistogramCounts)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    nl.addOutput("x", nl.addGate(CellKind::NAND2X1, a, b));
    nl.addOutput("y", nl.addGate(CellKind::NAND2X1, a, b));
    nl.addOutput("z", nl.addFlop(a));
    const auto histo = nl.cellHistogram();
    EXPECT_EQ(histo[std::size_t(CellKind::NAND2X1)], 2u);
    EXPECT_EQ(histo[std::size_t(CellKind::DFFX1)], 1u);
    EXPECT_EQ(histo[std::size_t(CellKind::INVX1)], 0u);
}

TEST(Netlist, RemoveGatesRebuildsDrivers)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId x = nl.addGate(CellKind::INVX1, a);
    const NetId y = nl.addGate(CellKind::INVX1, a);
    nl.addOutput("y", y);
    (void)x;

    std::vector<bool> dead(nl.gateCount(), false);
    dead[0] = true; // remove the x inverter
    nl.removeGates(dead);
    EXPECT_EQ(nl.gateCount(), 1u);
    EXPECT_NO_THROW(nl.levelize());
}

// ----------------------------------------------------------------
// Levelize schedule
// ----------------------------------------------------------------

/**
 * The levelize schedule in its plainest form, the reference for
 * Netlist::levelize: Kahn's algorithm with a FIFO ready list seeded
 * in ascending gate id. Each net keeps its combinational readers in
 * a vector in ascending gate id (a gate twice when it reads the net
 * on both pins) and releases them once its last combinational
 * driver is scheduled. On a combinational cycle it returns the
 * gates it could schedule.
 */
std::vector<GateId>
referenceLevelize(const Netlist &nl)
{
    std::vector<unsigned> pending(nl.netCount(), 0);
    for (GateId gi = 0; gi < nl.gateCount(); ++gi)
        if (!cellIsSequential(nl.gateKind(gi)))
            ++pending[nl.gateOut(gi)];

    std::vector<unsigned> unmet(nl.gateCount(), 0);
    std::vector<std::vector<GateId>> fanout(nl.netCount());
    for (GateId gi = 0; gi < nl.gateCount(); ++gi) {
        if (cellIsSequential(nl.gateKind(gi)))
            continue;
        for (NetId n : {nl.gateIn0(gi), nl.gateIn1(gi)}) {
            if (n != invalidNet && pending[n] > 0) {
                fanout[n].push_back(gi);
                ++unmet[gi];
            }
        }
    }

    std::vector<GateId> order;
    for (GateId gi = 0; gi < nl.gateCount(); ++gi)
        if (!cellIsSequential(nl.gateKind(gi)) && unmet[gi] == 0)
            order.push_back(gi);
    for (std::size_t next = 0; next < order.size(); ++next) {
        const NetId out = nl.gateOut(order[next]);
        if (--pending[out] == 0)
            for (GateId reader : fanout[out])
                if (--unmet[reader] == 0)
                    order.push_back(reader);
    }
    return order;
}

/**
 * A random acyclic netlist whose gate ids do not follow its
 * topological order. Each value is a combinational gate, a
 * tri-state bus of one to three drivers, or a sequential cell. A
 * value reads primary inputs, both constants, earlier values and
 * any sequential value; a sequential cell reads any value. The
 * drivers are created in shuffled order, and a driver created
 * before a value it reads reads a feedback placeholder, resolved
 * once every driver exists. One two-input driver in five reads one
 * net on both pins.
 */
Netlist
randomNetlist(Rng &rng)
{
    static const CellKind combKinds[] = {
        CellKind::INVX1, CellKind::NAND2X1, CellKind::NOR2X1,
        CellKind::AND2X1, CellKind::OR2X1, CellKind::XOR2X1,
        CellKind::XNOR2X1};
    static const CellKind seqKinds[] = {
        CellKind::DFFX1, CellKind::DFFNRX1, CellKind::LATCHX1};

    Netlist nl("random");
    std::vector<NetId> sources;
    for (int i = 0; i < 4; ++i)
        sources.push_back(nl.addInput("i" + std::to_string(i)));
    sources.push_back(nl.constZero());
    sources.push_back(nl.constOne());

    struct Value
    {
        CellKind kind;           ///< TSBUFX1 for a bus
        NetId net = invalidNet;  ///< the bus, or the driver's output
        NetId stub = invalidNet; ///< placeholder read before `net`
    };
    std::vector<Value> values(20 + rng.below(40));
    for (Value &v : values) {
        const std::uint64_t pick = rng.below(10);
        v.kind = pick < 7 ? combKinds[rng.below(7)]
               : pick < 9 ? CellKind::TSBUFX1
                          : seqKinds[rng.below(3)];
        if (v.kind == CellKind::TSBUFX1)
            v.net = nl.addNet();
    }

    // Operands: -1 - i for source i, else a value index.
    const auto operand = [&](std::size_t reader) {
        for (;;) {
            const std::size_t x = rng.below(sources.size() + values.size());
            if (x < sources.size())
                return -1 - int(x);
            const std::size_t w = x - sources.size();
            if (w < reader || cellIsSequential(values[w].kind) ||
                cellIsSequential(values[reader].kind))
                return int(w);
        }
    };
    struct Driver
    {
        std::size_t value;
        int a, b;
    };
    std::vector<Driver> drivers;
    for (std::size_t v = 0; v < values.size(); ++v) {
        const std::uint64_t fanin =
            values[v].kind == CellKind::TSBUFX1 ? 1 + rng.below(3) : 1;
        for (std::uint64_t d = 0; d < fanin; ++d) {
            const int a = operand(v);
            int b = 0;
            if (cellInputCount(values[v].kind) == 2)
                b = rng.below(5) == 0 ? a : operand(v);
            drivers.push_back({v, a, b});
        }
    }
    for (std::size_t i = drivers.size(); i > 1; --i)
        std::swap(drivers[i - 1], drivers[rng.below(i)]);

    const auto net_of = [&](int x) {
        if (x < 0)
            return sources[std::size_t(-1 - x)];
        Value &w = values[std::size_t(x)];
        if (w.net != invalidNet)
            return w.net;
        if (w.stub == invalidNet)
            w.stub = nl.makeFeedback();
        return w.stub;
    };
    for (const Driver &d : drivers) {
        Value &v = values[d.value];
        const NetId a = net_of(d.a);
        const NetId b =
            cellInputCount(v.kind) == 2 ? net_of(d.b) : invalidNet;
        if (v.kind == CellKind::TSBUFX1)
            nl.addTristate(a, b, v.net);
        else
            v.net = nl.addGate(v.kind, a, b);
    }
    for (const Value &v : values)
        if (v.stub != invalidNet)
            nl.resolveFeedback(v.stub, v.net);
    nl.addOutput("o0", values.back().net);
    nl.addOutput("o1", values[rng.below(values.size())].net);
    return nl;
}

TEST(NetlistLevelize, MatchesReferenceSchedule)
{
    for (const CoreConfig &cfg : figure7Configs()) {
        Netlist nl = elaborateCore(cfg);
        EXPECT_EQ(nl.levelize(), referenceLevelize(nl))
            << cfg.label() << " elaborated";
        synth::optimize(nl);
        EXPECT_EQ(nl.levelize(), referenceLevelize(nl))
            << cfg.label() << " optimized";
    }
    for (const KernelPoint &point : paperKernelPoints()) {
        const Workload wl = makeWorkload(point.kind, point.dataWidth,
                                         point.dataWidth);
        const Netlist nl =
            buildCore(specializedConfig(wl.program, wl.dmemWords));
        EXPECT_EQ(nl.levelize(), referenceLevelize(nl))
            << wl.program.name;
    }
    const Netlist p1 = buildCore(CoreConfig::standard(1, 8, 2));
    for (const synth::HardenStrategy strategy :
         {synth::HardenStrategy::TmrFull,
          synth::HardenStrategy::TmrSequential}) {
        const Netlist nl = synth::harden(p1, strategy);
        EXPECT_EQ(nl.levelize(), referenceLevelize(nl))
            << "p1_8_2 " << synth::hardenStrategyName(strategy);
    }

    // Random netlists, with a tally that the generator reaches every
    // shape it promises.
    Rng rng(0x1e7e1122);
    std::size_t shared_buses = 0, both_pins = 0, reordered = 0;
    for (int trial = 0; trial < 256; ++trial) {
        const Netlist nl = randomNetlist(rng);
        ASSERT_NO_THROW(nl.validate()) << "trial " << trial;
        const std::vector<GateId> order = nl.levelize();
        ASSERT_EQ(order, referenceLevelize(nl)) << "trial " << trial;
        reordered += !std::is_sorted(order.begin(), order.end());
        for (GateId gi = 0; gi < nl.gateCount(); ++gi) {
            both_pins += nl.gateIn1(gi) == nl.gateIn0(gi);
            shared_buses += nl.netFirstDriver(nl.gateOut(gi)) == gi &&
                            nl.netDriverCount(nl.gateOut(gi)) > 1;
        }
    }
    EXPECT_GT(shared_buses, 0u);
    EXPECT_GT(both_pins, 0u);
    EXPECT_GT(reordered, 0u);
}

TEST(NetlistLevelize, CycleThroughBusIsFatal)
{
    // bus -> AND -> second bus driver -> bus: the bus never becomes
    // ready, since one of its drivers waits on it.
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId en = nl.addInput("en");
    const NetId bus = nl.addNet("bus");
    nl.addTristate(a, en, bus);
    const NetId y = nl.addGate(CellKind::AND2X1, bus, a);
    nl.addTristate(y, en, bus);
    nl.addOutput("y", y);
    EXPECT_NO_THROW(nl.validate());
    EXPECT_THROW(nl.levelize(), FatalError);
}

TEST(NetlistUseIndex, CountsFanout)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId x = nl.addGate(CellKind::INVX1, a);
    const NetId y = nl.addGate(CellKind::AND2X1, a, b);
    nl.addOutput("x", x);
    nl.addOutput("y", y);
    EXPECT_EQ(nl.netUseCount(a), 2u);
    EXPECT_EQ(nl.netUseCount(b), 1u);
    EXPECT_EQ(nl.netUseCount(x), 0u);

    std::vector<GateId> readers;
    nl.forEachUse(a, [&](GateId g, unsigned) {
        readers.push_back(g);
    });
    std::sort(readers.begin(), readers.end());
    EXPECT_EQ(readers, (std::vector<GateId>{0, 1}));
}

TEST(NetlistUseIndex, RewireMovesFanoutAndOutputs)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId x = nl.addGate(CellKind::INVX1, a);
    nl.addGate(CellKind::AND2X1, a, b);
    nl.addOutput("x", x);
    nl.addOutput("a_alias", a);
    EXPECT_EQ(nl.netUseCount(a), 2u);

    nl.rewireUses(a, b);
    EXPECT_EQ(nl.netUseCount(a), 0u);
    // b now feeds the INV pin plus both AND pins.
    EXPECT_EQ(nl.netUseCount(b), 3u);
    EXPECT_EQ(nl.outputNet("a_alias"), b);
    EXPECT_NO_THROW(nl.validate());
}

TEST(NetlistUseIndex, SetGateRelinksPins)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    const NetId b = nl.addInput("b");
    const NetId c = nl.addInput("c");
    const NetId y = nl.addGate(CellKind::NAND2X1, a, b);
    nl.addOutput("y", y);

    nl.setGate(0, CellKind::INVX1, c);
    EXPECT_EQ(nl.netUseCount(a), 0u);
    EXPECT_EQ(nl.netUseCount(b), 0u);
    EXPECT_EQ(nl.netUseCount(c), 1u);
    EXPECT_EQ(nl.gate(0).kind, CellKind::INVX1);
    EXPECT_EQ(nl.gate(0).in1, invalidNet);
    EXPECT_NO_THROW(nl.validate());

    // Output nets cannot change, and TSBUFs cannot appear.
    EXPECT_THROW(nl.setGate(0, CellKind::DFFX1, c), PanicError);
    EXPECT_THROW(nl.setGate(0, CellKind::TSBUFX1, a, b), PanicError);
}

TEST(NetlistUseIndex, RewireMatchesScanOracle)
{
    Rng rng(0x5eed1234);
    for (int trial = 0; trial < 20; ++trial) {
        Netlist a("fuzz");
        std::vector<NetId> nets;
        for (int i = 0; i < 6; ++i)
            nets.push_back(a.addInput("i" + std::to_string(i)));
        const CellKind kinds[] = {CellKind::INVX1, CellKind::NAND2X1,
                                  CellKind::XOR2X1, CellKind::AND2X1};
        for (int g = 0; g < 40; ++g) {
            const CellKind k = kinds[rng.below(4)];
            const NetId x = nets[rng.below(nets.size())];
            const NetId y = nets[rng.below(nets.size())];
            nets.push_back(cellInputCount(k) == 2
                               ? a.addGate(k, x, y)
                               : a.addGate(k, x));
        }
        a.addOutput("o", nets.back());

        Netlist b = a;
        for (int r = 0; r < 30; ++r) {
            const NetId from = nets[rng.below(nets.size())];
            const NetId to = nets[rng.below(nets.size())];
            a.rewireUses(from, to);
            b.rewireUsesByScan(from, to);
            ASSERT_EQ(a.gateArray(), b.gateArray());
            ASSERT_EQ(a.outputs()[0].net, b.outputs()[0].net);
            ASSERT_NO_THROW(a.validate());
        }
    }
}

TEST(NetlistCompact, DropsOrphansKeepsPortsAndConsts)
{
    Netlist nl("c");
    const NetId a = nl.addInput("a");
    const NetId orphan1 = nl.addNet("scratch");
    const NetId c0 = nl.constZero();
    const NetId x = nl.addGate(CellKind::INVX1, a);
    const NetId orphan2 = nl.addNet();
    const NetId c1 = nl.constOne();
    nl.addOutput("y", x);

    const std::size_t before = nl.netCount();
    const std::vector<NetId> remap = nl.compact();
    ASSERT_EQ(remap.size(), before);
    EXPECT_EQ(nl.netCount(), before - 2);
    EXPECT_EQ(remap[orphan1], invalidNet);
    EXPECT_EQ(remap[orphan2], invalidNet);

    // Stability: ids only shift down past dropped nets.
    EXPECT_EQ(remap[a], a);
    EXPECT_EQ(nl.inputNet("a"), a);
    EXPECT_EQ(nl.outputNet("y"), remap[x]);
    EXPECT_EQ(nl.constZeroId(), remap[c0]);
    EXPECT_EQ(nl.constOneId(), remap[c1]);
    EXPECT_EQ(nl.netSource(nl.constZeroId()), NetSource::Const0);
    EXPECT_EQ(nl.netSource(nl.constOneId()), NetSource::Const1);
    EXPECT_EQ(nl.netName(remap[x]), "");
    EXPECT_NO_THROW(nl.validate());

    // Already-dense netlist: compact is the identity.
    const std::vector<NetId> again = nl.compact();
    for (NetId n = 0; n < again.size(); ++n)
        EXPECT_EQ(again[n], n);
}

TEST(NetlistCompact, RemoveGatesReturnsRemap)
{
    Netlist nl;
    const NetId a = nl.addInput("a");
    nl.addGate(CellKind::INVX1, a);
    const NetId y = nl.addGate(CellKind::INVX1, a);
    nl.addOutput("y", y);

    std::vector<bool> dead(nl.gateCount(), false);
    dead[0] = true;
    const std::vector<GateId> remap = nl.removeGates(dead);
    ASSERT_EQ(remap.size(), 2u);
    EXPECT_EQ(remap[0], invalidGate);
    EXPECT_EQ(remap[1], 0u);
    EXPECT_EQ(nl.gateOut(0), y);
}

TEST(NetlistStats, DepthOfChain)
{
    Netlist nl;
    NetId n = nl.addInput("a");
    for (int i = 0; i < 5; ++i)
        n = nl.addGate(CellKind::INVX1, n);
    nl.addOutput("y", n);
    const NetlistStats stats = computeStats(nl);
    EXPECT_EQ(stats.logicDepth, 5u);
    EXPECT_EQ(stats.totalGates, 5u);
    EXPECT_EQ(stats.combGates, 5u);
    EXPECT_EQ(stats.seqGates, 0u);
}

// ----------------------------------------------------------------
// Sealed netlists
// ----------------------------------------------------------------

std::uint64_t
validations()
{
    return metrics::counter("netlist.validations").value();
}

std::uint64_t
levelizations()
{
    return metrics::counter("netlist.levelizations").value();
}

/**
 * A copy without the seal: rewiring a net to itself changes nothing,
 * but it is a mutator, so it drops the seal.
 */
Netlist
unsealedCopy(const Netlist &nl)
{
    Netlist copy = nl;
    copy.rewireUses(0, 0);
    EXPECT_FALSE(copy.sealed());
    return copy;
}

TEST(NetlistSeal, EveryPublicMutatorDropsTheSeal)
{
    Netlist base("sealed");
    const NetId a = base.addInput("a");
    const NetId b = base.addInput("b");
    const NetId bus = base.addNet("bus"); // unread, so it may float
    const NetId fb = base.makeFeedback();
    const NetId n = base.addGate(CellKind::NAND2X1, a, b);
    const NetId q = base.addFlop(n);
    base.addOutput("y", base.addGate(CellKind::INVX1, q));
    base.seal();
    ASSERT_TRUE(base.sealed());

    using Mutator = std::function<void(Netlist &)>;
    const std::vector<std::pair<std::string, Mutator>> mutators = {
        {"addNet", [](Netlist &nl) { nl.addNet(); }},
        {"addInput", [](Netlist &nl) { nl.addInput("c"); }},
        {"addOutput", [&](Netlist &nl) { nl.addOutput("z", a); }},
        {"constZero", [](Netlist &nl) { nl.constZero(); }},
        {"constOne", [](Netlist &nl) { nl.constOne(); }},
        {"addGate",
         [&](Netlist &nl) { nl.addGate(CellKind::INVX1, a); }},
        {"addTristate", [&](Netlist &nl) { nl.addTristate(a, b, bus); }},
        {"addFlop", [&](Netlist &nl) { nl.addFlop(a); }},
        {"addFlopReset", [&](Netlist &nl) { nl.addFlopReset(a, b); }},
        {"setGate",
         [&](Netlist &nl) { nl.setGate(0, CellKind::NOR2X1, a, b); }},
        {"rewireUses", [&](Netlist &nl) { nl.rewireUses(q, n); }},
        {"rewireUsesByScan",
         [&](Netlist &nl) { nl.rewireUsesByScan(q, n); }},
        {"makeFeedback", [](Netlist &nl) { nl.makeFeedback(); }},
        {"resolveFeedback",
         [&](Netlist &nl) { nl.resolveFeedback(fb, a); }},
        {"removeGates",
         [](Netlist &nl) {
             nl.removeGates(std::vector<bool>(nl.gateCount(), false));
         }},
        {"compact", [](Netlist &nl) { nl.compact(); }},
    };
    for (const auto &[name, mutate] : mutators) {
        Netlist nl = base;
        ASSERT_TRUE(nl.sealed()) << name << ": a copy carries the seal";
        mutate(nl);
        EXPECT_FALSE(nl.sealed()) << name;
        // What the seal stood for is checked afresh, and resealing
        // stores the new netlist's schedule.
        const std::uint64_t v0 = validations(), l0 = levelizations();
        EXPECT_NO_THROW(nl.validate()) << name;
        const std::vector<GateId> order = nl.levelize();
        EXPECT_EQ(validations() - v0, 1u) << name;
        EXPECT_EQ(levelizations() - l0, 1u) << name;
        nl.seal();
        EXPECT_EQ(nl.levelize(), order) << name;
    }

    // A move carries the seal and leaves the source unsealed.
    Netlist from = base;
    const Netlist to = std::move(from);
    EXPECT_TRUE(to.sealed());
    EXPECT_FALSE(from.sealed());
}

TEST(NetlistSeal, StoredAnswersCountNothing)
{
    Netlist nl("count");
    const NetId a = nl.addInput("a");
    nl.addOutput("y", nl.addFlop(nl.addGate(CellKind::INVX1, a)));

    std::uint64_t v0 = validations(), l0 = levelizations();
    nl.seal();
    EXPECT_EQ(validations() - v0, 1u);
    EXPECT_EQ(levelizations() - l0, 1u);

    v0 = validations();
    l0 = levelizations();
    nl.seal();
    nl.validate();
    EXPECT_EQ(nl.levelize(), std::vector<GateId>{0});
    EXPECT_EQ(nl.cellHistogram()[std::size_t(CellKind::DFFX1)], 1u);
    EXPECT_EQ(nl.flopCount(), 1u);
    EXPECT_EQ(computeStats(nl).logicDepth, 1u);
    EXPECT_EQ(validations(), v0);
    EXPECT_EQ(levelizations(), l0);
}

TEST(NetlistSeal, SealPanicsAsValidateAndLevelizeDo)
{
    Netlist open("open");
    const NetId floating = open.addNet("floating");
    open.addOutput("y", open.addGate(CellKind::INVX1, floating));
    try {
        open.seal();
        FAIL() << "expected PanicError";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "Netlist 'open': net 0 (floating) is "
                               "read but undriven");
    }
    EXPECT_FALSE(open.sealed());

    Netlist loop("loop");
    const NetId fb = loop.makeFeedback();
    const NetId y = loop.addGate(CellKind::INVX1, fb);
    loop.resolveFeedback(fb, y);
    loop.addOutput("y", y);
    EXPECT_THROW(loop.seal(), FatalError);
    EXPECT_FALSE(loop.sealed());
}

/** Sealed answers equal a fresh unsealed copy's. */
void
expectSealMatchesFresh(const Netlist &nl, const std::string &what)
{
    ASSERT_TRUE(nl.sealed()) << what;
    const Netlist fresh = unsealedCopy(nl);
    EXPECT_EQ(nl.levelize(), fresh.levelize()) << what;
    EXPECT_EQ(nl.cellHistogram(), fresh.cellHistogram()) << what;
    EXPECT_EQ(nl.flopCount(), fresh.flopCount()) << what;
}

TEST(NetlistSeal, StoredResultsMatchAFreshCopyOnEveryCore)
{
    for (const CoreConfig &cfg : figure7Configs())
        expectSealMatchesFresh(buildCore(cfg), cfg.label());
    for (const KernelPoint &point : paperKernelPoints()) {
        const Workload wl = makeWorkload(point.kind, point.dataWidth,
                                         point.dataWidth);
        expectSealMatchesFresh(
            buildCore(specializedConfig(wl.program, wl.dmemWords)),
            wl.program.name);
    }
    const Netlist p1 = buildCore(CoreConfig::standard(1, 8, 2));
    expectSealMatchesFresh(
        synth::harden(p1, synth::HardenStrategy::TmrFull),
        "p1_8_2 TMR-full");
}

TEST(NetlistSeal, SharedSealedNetlistReadsFromAPool)
{
    // Const reads of a sealed netlist write nothing, so any number
    // of workers may read one at once (CI runs this under TSan).
    const Netlist nl = buildCore(CoreConfig::standard(1, 8, 2));
    const Netlist fresh = unsealedCopy(nl);
    const std::vector<GateId> order = fresh.levelize();
    const auto histo = fresh.cellHistogram();

    const std::uint64_t v0 = validations(), l0 = levelizations();
    ThreadPool pool(8);
    const std::vector<bool> same =
        pool.parallelMap(64, [&](std::size_t) {
            nl.validate();
            return nl.levelize() == order &&
                   nl.cellHistogram() == histo;
        });
    EXPECT_EQ(std::count(same.begin(), same.end(), true), 64);
    EXPECT_EQ(validations(), v0);
    EXPECT_EQ(levelizations(), l0);
}

} // anonymous namespace
} // namespace printed
