#include "harden.hh"

#include <array>

#include "common/logging.hh"

namespace printed::synth
{

namespace
{

/** True when a net is a tri-state bus (driven by TSBUF instances). */
bool
isTristateBus(const Netlist &nl, NetId n)
{
    const GateId first = nl.netFirstDriver(n);
    return nl.netSource(n) == NetSource::GateOutput &&
           first != invalidGate &&
           nl.gateKind(first) == CellKind::TSBUFX1;
}

/**
 * Net-translation state for one redundant copy of the source
 * netlist. Inputs, constants, and voted flop outputs are shared
 * across copies; everything else is per-copy.
 */
struct CopyMap
{
    std::vector<NetId> map;

    explicit CopyMap(std::size_t nets)
        : map(nets, invalidNet)
    {}

    NetId
    xlate(const Netlist &src, Netlist &dst, NetId n)
    {
        panicIf(n >= map.size(), "harden: bad source net");
        NetId &m = map[n];
        if (m != invalidNet)
            return m;
        switch (src.netSource(n)) {
          case NetSource::Const0:
            m = dst.constZero();
            break;
          case NetSource::Const1:
            m = dst.constOne();
            break;
          default:
            panic("harden: net '" + src.netLabel(n) +
                  "' used before it is defined");
        }
        return m;
    }
};

Netlist
tmrFull(const Netlist &src, HardenReport &report)
{
    Netlist dst(src.name() + "_tmrfull");
    const auto order = src.levelize();
    std::array<CopyMap, 3> maps = {CopyMap(src.netCount()),
                                   CopyMap(src.netCount()),
                                   CopyMap(src.netCount())};

    // Primary input traces are shared by all three copies (the
    // voter cannot protect the pads themselves).
    for (const auto &p : src.inputs()) {
        const NetId n = dst.addInput(p.name);
        for (CopyMap &m : maps)
            m.map[p.net] = n;
    }

    // Tri-state bus nets must exist before their drivers are added.
    for (NetId n = 0; n < src.netCount(); ++n) {
        if (!isTristateBus(src, n))
            continue;
        for (unsigned k = 0; k < 3; ++k)
            maps[k].map[n] = dst.addNet();
    }

    // All copies read the *voted* flop state, so a defect in one
    // copy's state is corrected at the next boundary crossing.
    std::vector<NetId> votedQ(src.gateCount(), invalidNet);
    for (GateId gi = 0; gi < src.gateCount(); ++gi) {
        const Gate &g = src.gate(gi);
        if (!cellIsSequential(g.kind))
            continue;
        votedQ[gi] = dst.makeFeedback();
        for (CopyMap &m : maps)
            m.map[g.out] = votedQ[gi];
    }

    // Triplicate the combinational logic in levelized order (three
    // consecutive copies per original gate; harden.hh documents
    // this layout).
    for (GateId gi : order) {
        const Gate &g = src.gate(gi);
        for (CopyMap &m : maps) {
            const NetId a = m.xlate(src, dst, g.in0);
            if (g.kind == CellKind::TSBUFX1) {
                dst.addTristate(a, m.xlate(src, dst, g.in1),
                                m.map[g.out]);
            } else {
                const NetId b = g.in1 != invalidNet
                                    ? m.xlate(src, dst, g.in1)
                                    : invalidNet;
                m.map[g.out] = dst.addGate(g.kind, a, b);
            }
        }
    }

    // Triplicate the sequential cells and vote their outputs.
    for (GateId gi = 0; gi < src.gateCount(); ++gi) {
        const Gate &g = src.gate(gi);
        if (!cellIsSequential(g.kind))
            continue;
        std::array<NetId, 3> q{};
        for (unsigned k = 0; k < 3; ++k) {
            const NetId a = maps[k].xlate(src, dst, g.in0);
            const NetId b = g.in1 != invalidNet
                                ? maps[k].xlate(src, dst, g.in1)
                                : invalidNet;
            q[k] = dst.addGate(g.kind, a, b);
        }
        const NetId v = majority3(dst, q[0], q[1], q[2]);
        dst.resolveFeedback(votedQ[gi], v);
        ++report.votersInserted;
        for (CopyMap &m : maps)
            m.map[g.out] = v;
    }

    // Vote every primary output whose three copies diverged (flop-
    // fed or shared-net outputs are already voted/shared).
    for (const auto &p : src.outputs()) {
        const NetId a = maps[0].xlate(src, dst, p.net);
        const NetId b = maps[1].xlate(src, dst, p.net);
        const NetId c = maps[2].xlate(src, dst, p.net);
        if (a == b && b == c) {
            dst.addOutput(p.name, a);
        } else {
            dst.addOutput(p.name, majority3(dst, a, b, c));
            ++report.votersInserted;
        }
    }

    report.gatesTriplicated = src.gateCount();
    return dst;
}

Netlist
tmrSequential(const Netlist &src, HardenReport &report)
{
    Netlist dst(src.name() + "_tmrseq");
    const auto order = src.levelize();
    CopyMap m(src.netCount());

    for (const auto &p : src.inputs())
        m.map[p.net] = dst.addInput(p.name);

    for (NetId n = 0; n < src.netCount(); ++n)
        if (isTristateBus(src, n))
            m.map[n] = dst.addNet();

    std::vector<NetId> votedQ(src.gateCount(), invalidNet);
    for (GateId gi = 0; gi < src.gateCount(); ++gi) {
        const Gate &g = src.gate(gi);
        if (!cellIsSequential(g.kind))
            continue;
        votedQ[gi] = dst.makeFeedback();
        m.map[g.out] = votedQ[gi];
    }

    for (GateId gi : order) {
        const Gate &g = src.gate(gi);
        const NetId a = m.xlate(src, dst, g.in0);
        if (g.kind == CellKind::TSBUFX1) {
            dst.addTristate(a, m.xlate(src, dst, g.in1),
                            m.map[g.out]);
        } else {
            const NetId b = g.in1 != invalidNet
                                ? m.xlate(src, dst, g.in1)
                                : invalidNet;
            m.map[g.out] = dst.addGate(g.kind, a, b);
        }
    }

    // The combinational logic is single-copy; only the (defect-
    // dense) sequential cells are triplicated, fed by the same next-
    // state value and voted on their outputs.
    for (GateId gi = 0; gi < src.gateCount(); ++gi) {
        const Gate &g = src.gate(gi);
        if (!cellIsSequential(g.kind))
            continue;
        const NetId a = m.xlate(src, dst, g.in0);
        const NetId b = g.in1 != invalidNet
                            ? m.xlate(src, dst, g.in1)
                            : invalidNet;
        std::array<NetId, 3> q{};
        for (unsigned k = 0; k < 3; ++k)
            q[k] = dst.addGate(g.kind, a, b);
        const NetId v = majority3(dst, q[0], q[1], q[2]);
        dst.resolveFeedback(votedQ[gi], v);
        ++report.votersInserted;
        m.map[g.out] = v;
        ++report.gatesTriplicated;
    }

    for (const auto &p : src.outputs())
        dst.addOutput(p.name, m.xlate(src, dst, p.net));

    return dst;
}

} // anonymous namespace

const char *
hardenStrategyName(HardenStrategy strategy)
{
    switch (strategy) {
      case HardenStrategy::TmrFull:
        return "TMR-full";
      case HardenStrategy::TmrSequential:
        return "TMR-seq";
    }
    panic("hardenStrategyName: unknown strategy");
}

NetId
majority3(Netlist &nl, NetId a, NetId b, NetId c)
{
    // maj = ab + ac + bc as a NAND tree: cheapest realization in
    // the stage model (6 printed devices).
    const NetId nab = nl.addGate(CellKind::NAND2X1, a, b);
    const NetId nac = nl.addGate(CellKind::NAND2X1, a, c);
    const NetId nbc = nl.addGate(CellKind::NAND2X1, b, c);
    const NetId pair = nl.addGate(CellKind::AND2X1, nab, nac);
    return nl.addGate(CellKind::NAND2X1, pair, nbc);
}

Netlist
harden(const Netlist &src, HardenStrategy strategy,
       HardenReport *report)
{
    src.validate();
    HardenReport local;
    local.gatesBefore = src.gateCount();

    Netlist dst = strategy == HardenStrategy::TmrFull
                      ? tmrFull(src, local)
                      : tmrSequential(src, local);

    local.gatesAfter = dst.gateCount();
    dst.seal();
    if (report)
        *report = local;
    return dst;
}

} // namespace printed::synth
