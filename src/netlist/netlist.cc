#include "netlist.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace printed
{

Netlist::Netlist(std::string name)
    : name_(std::move(name))
{}

Netlist
Netlist::restore(std::string name, std::vector<NetSource> sources,
                 std::vector<std::pair<NetId, std::string>> netNames,
                 std::vector<Gate> gates,
                 std::vector<PortBinding> inputs,
                 std::vector<PortBinding> outputs, NetId const0,
                 NetId const1)
{
    Netlist nl(std::move(name));
    nl.netSource_ = std::move(sources);
    nl.netNameRef_.assign(nl.netSource_.size(), 0);
    for (auto &[net, nname] : netNames) {
        panicIf(net >= nl.netSource_.size(),
                "Netlist::restore: named net out of range");
        nl.netNameRef_[net] = nl.internName(nname);
    }
    nl.gateKind_.reserve(gates.size());
    nl.gateIn0_.reserve(gates.size());
    nl.gateIn1_.reserve(gates.size());
    nl.gateOut_.reserve(gates.size());
    for (const Gate &g : gates) {
        panicIf(g.out >= nl.netSource_.size(),
                "Netlist::restore: gate with out-of-range output");
        nl.gateKind_.push_back(g.kind);
        nl.gateIn0_.push_back(g.in0);
        nl.gateIn1_.push_back(g.in1);
        nl.gateOut_.push_back(g.out);
    }
    nl.inputs_ = std::move(inputs);
    nl.outputs_ = std::move(outputs);
    nl.const0_ = const0;
    nl.const1_ = const1;

    // Serialized blobs carry no driver lists or use-index; rebuild
    // both from the gates before validate() checks them.
    nl.rebuildDrivers();
    nl.rebuildUseIndex();
    nl.validate();
    return nl;
}

std::uint32_t
Netlist::internName(const std::string &name)
{
    if (name.empty())
        return 0;
    const auto it = internMap_.find(name);
    if (it != internMap_.end())
        return it->second;
    const std::uint32_t ref = std::uint32_t(namePool_.size()) + 1;
    namePool_ += name;
    namePool_.push_back('\0');
    internMap_.emplace(name, ref);
    return ref;
}

std::string
Netlist::netName(NetId n) const
{
    panicIf(n >= netSource_.size(), "netName: bad net");
    const std::uint32_t ref = netNameRef_[n];
    if (ref == 0)
        return {};
    return std::string(namePool_.c_str() + (ref - 1));
}

// ----------------------------------------------------------------
// Driver index maintenance
// ----------------------------------------------------------------

void
Netlist::appendDriver(NetId n, GateId gi)
{
    if (driverHead_[n] == invalidGate)
        driverHead_[n] = gi;
    else
        driverNext_[driverTail_[n]] = gi;
    driverTail_[n] = gi;
}

void
Netlist::rebuildDrivers()
{
    driverHead_.assign(netSource_.size(), invalidGate);
    driverTail_.assign(netSource_.size(), invalidGate);
    driverNext_.assign(gateKind_.size(), invalidGate);
    for (GateId gi = 0; gi < gateKind_.size(); ++gi)
        appendDriver(gateOut_[gi], gi);
}

GateId
Netlist::netSoleDriver(NetId n) const
{
    panicIf(n >= netSource_.size(), "netSoleDriver: bad net");
    const GateId head = driverHead_[n];
    if (head == invalidGate || driverNext_[head] != invalidGate)
        return invalidGate;
    return head;
}

std::size_t
Netlist::netDriverCount(NetId n) const
{
    panicIf(n >= netSource_.size(), "netDriverCount: bad net");
    std::size_t count = 0;
    for (GateId g = driverHead_[n]; g != invalidGate;
         g = driverNext_[g])
        ++count;
    return count;
}

// ----------------------------------------------------------------
// Use-index maintenance
// ----------------------------------------------------------------

void
Netlist::linkUse(NetId n, UseNode u)
{
    const UseNode old = useHead_[n];
    useNext_[u] = old;
    usePrev_[u] = useHeadFlag | n;
    if (old != invalidUseNode)
        usePrev_[old] = u;
    useHead_[n] = u;
}

void
Netlist::unlinkUse(UseNode u)
{
    const UseNode next = useNext_[u];
    const UseNode prev = usePrev_[u];
    panicIf(prev == invalidUseNode, "unlinkUse: node not linked");
    if (prev & useHeadFlag)
        useHead_[prev & ~useHeadFlag] = next;
    else
        useNext_[prev] = next;
    if (next != invalidUseNode)
        usePrev_[next] = prev;
    useNext_[u] = invalidUseNode;
    usePrev_[u] = invalidUseNode;
}

void
Netlist::linkGateUses(GateId gi)
{
    useNext_.resize(gateKind_.size() * 2, invalidUseNode);
    usePrev_.resize(gateKind_.size() * 2, invalidUseNode);
    if (gateIn0_[gi] != invalidNet)
        linkUse(gateIn0_[gi], UseNode(gi) * 2);
    if (gateIn1_[gi] != invalidNet)
        linkUse(gateIn1_[gi], UseNode(gi) * 2 + 1);
}

void
Netlist::rebuildUseIndex()
{
    useHead_.assign(netSource_.size(), invalidUseNode);
    useNext_.assign(gateKind_.size() * 2, invalidUseNode);
    usePrev_.assign(gateKind_.size() * 2, invalidUseNode);
    for (GateId gi = 0; gi < gateKind_.size(); ++gi) {
        if (gateIn0_[gi] != invalidNet)
            linkUse(gateIn0_[gi], UseNode(gi) * 2);
        if (gateIn1_[gi] != invalidNet)
            linkUse(gateIn1_[gi], UseNode(gi) * 2 + 1);
    }
}

void
Netlist::checkUseIndex() const
{
    panicIf(useHead_.size() != netSource_.size() ||
                useNext_.size() != gateKind_.size() * 2 ||
                usePrev_.size() != gateKind_.size() * 2,
            "use-index: array size mismatch");
    std::size_t linked = 0;
    for (NetId n = 0; n < netSource_.size(); ++n) {
        UseNode prev = useHeadFlag | n;
        for (UseNode u = useHead_[n]; u != invalidUseNode;
             u = useNext_[u]) {
            panicIf(usePrev_[u] != prev, "use-index: bad prev link");
            const NetId pin_net =
                (u & 1) ? gateIn1_[u >> 1] : gateIn0_[u >> 1];
            panicIf(pin_net != n, "use-index: pin does not read net");
            panicIf(++linked > 2 * gateKind_.size(),
                    "use-index: list cycle");
            prev = u;
        }
    }
    std::size_t pins = 0;
    for (GateId gi = 0; gi < gateKind_.size(); ++gi) {
        if (gateIn0_[gi] != invalidNet)
            ++pins;
        if (gateIn1_[gi] != invalidNet)
            ++pins;
    }
    panicIf(linked != pins, "use-index: node count mismatch");
}

std::size_t
Netlist::netUseCount(NetId n) const
{
    panicIf(n >= netSource_.size(), "netUseCount: bad net");
    std::size_t count = 0;
    for (UseNode u = useHead_[n]; u != invalidUseNode;
         u = useNext_[u])
        ++count;
    return count;
}

// ----------------------------------------------------------------
// Construction
// ----------------------------------------------------------------

NetId
Netlist::addDrivenNet(NetSource source, std::string name)
{
    netSource_.push_back(source);
    netNameRef_.push_back(internName(name));
    driverHead_.push_back(invalidGate);
    driverTail_.push_back(invalidGate);
    useHead_.push_back(invalidUseNode);
    return NetId(netSource_.size() - 1);
}

NetId
Netlist::addNet(std::string name)
{
    return addDrivenNet(NetSource::Undriven, std::move(name));
}

NetId
Netlist::addInput(const std::string &name)
{
    const NetId id = addDrivenNet(NetSource::Input, name);
    inputs_.push_back({name, id});
    return id;
}

void
Netlist::addOutput(const std::string &name, NetId net)
{
    panicIf(net >= netSource_.size(), "addOutput: bad net");
    outputs_.push_back({name, net});
}

NetId
Netlist::constZero()
{
    if (const0_ == invalidNet)
        const0_ = addDrivenNet(NetSource::Const0, "const0");
    return const0_;
}

NetId
Netlist::constOne()
{
    if (const1_ == invalidNet)
        const1_ = addDrivenNet(NetSource::Const1, "const1");
    return const1_;
}

NetId
Netlist::addGate(CellKind kind, NetId a, NetId b)
{
    panicIf(kind == CellKind::TSBUFX1,
            "addGate: use addTristate for TSBUFX1");
    const unsigned wants = cellInputCount(kind);
    panicIf(a >= netSource_.size(), "addGate: bad input a");
    if (wants == 2 && b >= netSource_.size())
        panic("addGate: " + cellName(kind) + " needs two inputs");
    if (wants == 1 && b != invalidNet)
        panic("addGate: " + cellName(kind) + " takes one input");

    const NetId out = addDrivenNet(NetSource::GateOutput);
    const GateId gi = GateId(gateKind_.size());
    gateKind_.push_back(kind);
    gateIn0_.push_back(a);
    gateIn1_.push_back(wants == 2 ? b : invalidNet);
    gateOut_.push_back(out);
    driverNext_.push_back(invalidGate);
    appendDriver(out, gi);
    linkGateUses(gi);
    return out;
}

GateId
Netlist::addTristate(NetId a, NetId en, NetId bus)
{
    panicIf(a >= netSource_.size() || en >= netSource_.size() ||
            bus >= netSource_.size(), "addTristate: bad net");
    panicIf(netSource_[bus] == NetSource::Input ||
            netSource_[bus] == NetSource::Const0 ||
            netSource_[bus] == NetSource::Const1,
            "addTristate: bus cannot be an input or constant");

    const GateId gi = GateId(gateKind_.size());
    gateKind_.push_back(CellKind::TSBUFX1);
    gateIn0_.push_back(a);
    gateIn1_.push_back(en);
    gateOut_.push_back(bus);
    driverNext_.push_back(invalidGate);
    netSource_[bus] = NetSource::GateOutput;
    appendDriver(bus, gi);
    linkGateUses(gi);
    return gi;
}

void
Netlist::setGate(GateId id, CellKind kind, NetId in0, NetId in1)
{
    panicIf(id >= gateKind_.size(), "setGate: bad gate");
    panicIf(kind == CellKind::TSBUFX1 ||
                gateKind_[id] == CellKind::TSBUFX1,
            "setGate: cannot rewrite tri-state drivers");
    panicIf(cellIsSequential(kind) !=
                cellIsSequential(gateKind_[id]),
            "setGate: sequential/combinational change");
    const unsigned wants = cellInputCount(kind);
    panicIf(in0 >= netSource_.size(), "setGate: bad input a");
    if (wants == 2 && in1 >= netSource_.size())
        panic("setGate: " + cellName(kind) + " needs two inputs");
    if (wants == 1 && in1 != invalidNet)
        panic("setGate: " + cellName(kind) + " takes one input");

    if (gateIn0_[id] != in0) {
        if (gateIn0_[id] != invalidNet)
            unlinkUse(UseNode(id) * 2);
        gateIn0_[id] = in0;
        if (in0 != invalidNet)
            linkUse(in0, UseNode(id) * 2);
    }
    if (gateIn1_[id] != in1) {
        if (gateIn1_[id] != invalidNet)
            unlinkUse(UseNode(id) * 2 + 1);
        gateIn1_[id] = in1;
        if (in1 != invalidNet)
            linkUse(in1, UseNode(id) * 2 + 1);
    }
    gateKind_[id] = kind;
}

NetId
Netlist::addFlop(NetId d)
{
    return addGate(CellKind::DFFX1, d);
}

NetId
Netlist::addFlopReset(NetId d, NetId rn)
{
    return addGate(CellKind::DFFNRX1, d, rn);
}

std::vector<Gate>
Netlist::gateArray() const
{
    std::vector<Gate> gates;
    gates.reserve(gateKind_.size());
    for (GateId gi = 0; gi < gateKind_.size(); ++gi)
        gates.push_back(gate(gi));
    return gates;
}

NetId
Netlist::inputNet(const std::string &name) const
{
    for (const auto &p : inputs_)
        if (p.name == name)
            return p.net;
    fatal("Netlist '" + name_ + "': no input named '" + name + "'");
}

NetId
Netlist::outputNet(const std::string &name) const
{
    for (const auto &p : outputs_)
        if (p.name == name)
            return p.net;
    fatal("Netlist '" + name_ + "': no output named '" + name + "'");
}

std::string
Netlist::netLabel(NetId id) const
{
    if (id == invalidNet)
        return "<no net>";
    if (id < netSource_.size() && netNameRef_[id] != 0)
        return netName(id);
    return "net#" + std::to_string(id);
}

std::string
Netlist::gateLabel(GateId id) const
{
    if (id >= gateKind_.size())
        return "gate#" + std::to_string(id);
    return cellName(gateKind_[id]) + "#" + std::to_string(id) +
           " -> " + netLabel(gateOut_[id]);
}

std::size_t
Netlist::flopCount() const
{
    std::size_t n = 0;
    for (CellKind kind : gateKind_)
        if (cellIsSequential(kind))
            ++n;
    return n;
}

void
Netlist::validate() const
{
    panicIf(netNameRef_.size() != netSource_.size() ||
                driverHead_.size() != netSource_.size() ||
                driverTail_.size() != netSource_.size() ||
                gateIn0_.size() != gateKind_.size() ||
                gateIn1_.size() != gateKind_.size() ||
                gateOut_.size() != gateKind_.size() ||
                driverNext_.size() != gateKind_.size(),
            "Netlist: column size mismatch");

    // A net must be driven if anything reads it (a gate input or a
    // primary output); orphaned nets left behind by optimization are
    // tolerated.
    std::vector<bool> read(netSource_.size(), false);
    for (GateId gi = 0; gi < gateKind_.size(); ++gi) {
        if (gateIn0_[gi] < netSource_.size())
            read[gateIn0_[gi]] = true;
        if (gateIn1_[gi] != invalidNet &&
            gateIn1_[gi] < netSource_.size())
            read[gateIn1_[gi]] = true;
    }
    for (const auto &p : outputs_)
        if (p.net < netSource_.size())
            read[p.net] = true;

    std::size_t listed_drivers = 0;
    for (NetId n = 0; n < netSource_.size(); ++n) {
        switch (netSource_[n]) {
          case NetSource::Undriven:
            if (read[n])
                panic("Netlist '" + name_ + "': net " +
                      std::to_string(n) +
                      (netNameRef_[n] == 0
                           ? std::string()
                           : " (" + netName(n) + ")") +
                      " is read but undriven");
            panicIf(driverHead_[n] != invalidGate,
                    "Netlist: undriven net has gate drivers");
            break;
          case NetSource::GateOutput: {
            panicIf(driverHead_[n] == invalidGate,
                    "Netlist: GateOutput net with no drivers");
            std::size_t count = 0;
            for (GateId g = driverHead_[n]; g != invalidGate;
                 g = driverNext_[g]) {
                panicIf(gateOut_[g] != n,
                        "Netlist: driver list names non-driver");
                ++count;
                panicIf(count > gateKind_.size(),
                        "Netlist: driver list cycle");
            }
            if (count > 1) {
                for (GateId g = driverHead_[n]; g != invalidGate;
                     g = driverNext_[g])
                    if (gateKind_[g] != CellKind::TSBUFX1)
                        panic("Netlist: only TSBUFs may share net " +
                              std::to_string(n));
            }
            listed_drivers += count;
            break;
          }
          default:
            panicIf(driverHead_[n] != invalidGate,
                    "Netlist: input/const net has gate drivers");
            break;
        }
    }
    panicIf(listed_drivers != gateKind_.size(),
            "Netlist: driver index does not cover all gates");

    for (GateId gi = 0; gi < gateKind_.size(); ++gi) {
        panicIf(gateIn0_[gi] >= netSource_.size(),
                "Netlist: gate with bad in0");
        if (cellInputCount(gateKind_[gi]) == 2)
            panicIf(gateIn1_[gi] >= netSource_.size(),
                    "Netlist: gate with bad in1");
        panicIf(gateOut_[gi] >= netSource_.size(),
                "Netlist: gate with bad out");
    }

    for (const auto &p : outputs_)
        panicIf(p.net >= netSource_.size(),
                "Netlist: bad output binding");

    checkUseIndex();
}

std::vector<GateId>
Netlist::levelize() const
{
    // Kahn's algorithm over combinational gates only. A net is
    // "ready" when all its (combinational) drivers have been
    // scheduled; sequential outputs, inputs, and constants are ready
    // from the start.
    const std::size_t gates = gateKind_.size();
    std::vector<unsigned> pending_drivers(netSource_.size(), 0);
    for (GateId gi = 0; gi < gates; ++gi) {
        if (!cellIsSequential(gateKind_[gi]))
            ++pending_drivers[gateOut_[gi]];
    }

    // CSR fanout: for each net, the combinational gates reading it
    // while it still has pending drivers. Two passes (count, fill)
    // replace the per-net vector<vector> of the old implementation;
    // the fill order (ascending gate id per net) and the FIFO ready
    // list reproduce its schedule exactly.
    std::vector<unsigned> unmet(gates, 0);
    std::vector<std::uint32_t> fanout_off(netSource_.size() + 1, 0);
    for (GateId gi = 0; gi < gates; ++gi) {
        if (cellIsSequential(gateKind_[gi]))
            continue;
        // For multi-driver TSBUF buses a gate's own output may be a
        // "pending" net, but it must not wait on itself; we count a
        // dependency per input net only.
        for (NetId n : {gateIn0_[gi], gateIn1_[gi]}) {
            if (n != invalidNet && pending_drivers[n] > 0) {
                ++fanout_off[n + 1];
                ++unmet[gi];
            }
        }
    }
    for (NetId n = 0; n < netSource_.size(); ++n)
        fanout_off[n + 1] += fanout_off[n];
    std::vector<GateId> fanout(fanout_off.back());
    {
        std::vector<std::uint32_t> cursor(
            fanout_off.begin(), fanout_off.end() - 1);
        for (GateId gi = 0; gi < gates; ++gi) {
            if (cellIsSequential(gateKind_[gi]))
                continue;
            for (NetId n : {gateIn0_[gi], gateIn1_[gi]}) {
                if (n != invalidNet && pending_drivers[n] > 0)
                    fanout[cursor[n]++] = gi;
            }
        }
    }

    // FIFO ready list: `order` doubles as the queue; `scanned` is
    // the consumption cursor.
    std::vector<GateId> order;
    order.reserve(gates);
    for (GateId gi = 0; gi < gates; ++gi)
        if (!cellIsSequential(gateKind_[gi]) && unmet[gi] == 0)
            order.push_back(gi);

    for (std::size_t scanned = 0; scanned < order.size();
         ++scanned) {
        const GateId gi = order[scanned];
        const NetId out = gateOut_[gi];
        panicIf(pending_drivers[out] == 0,
                "levelize: driver count underflow");
        if (--pending_drivers[out] == 0) {
            for (std::uint32_t f = fanout_off[out];
                 f < fanout_off[out + 1]; ++f) {
                const GateId reader = fanout[f];
                panicIf(unmet[reader] == 0,
                        "levelize: dependency underflow");
                if (--unmet[reader] == 0)
                    order.push_back(reader);
            }
        }
    }

    std::size_t comb = 0;
    for (CellKind kind : gateKind_)
        if (!cellIsSequential(kind))
            ++comb;
    if (order.size() != comb)
        fatal("Netlist '" + name_ + "': combinational cycle detected (" +
              std::to_string(comb - order.size()) + " gates unschedulable)");
    return order;
}

std::array<std::size_t, numCellKinds>
Netlist::cellHistogram() const
{
    std::array<std::size_t, numCellKinds> histo{};
    for (CellKind kind : gateKind_)
        ++histo[static_cast<std::size_t>(kind)];
    return histo;
}

void
Netlist::rewireUses(NetId from, NetId to)
{
    panicIf(from >= netSource_.size() || to >= netSource_.size(),
            "rewireUses: bad net");
    if (from == to)
        return;

    // Patch every reading pin (following the use list) and find the
    // list tail, then splice the whole list onto `to`'s head. Cost:
    // O(fanout(from)), never O(gates).
    const UseNode head = useHead_[from];
    UseNode tail = invalidUseNode;
    for (UseNode u = head; u != invalidUseNode; u = useNext_[u]) {
        if (u & 1)
            gateIn1_[u >> 1] = to;
        else
            gateIn0_[u >> 1] = to;
        tail = u;
    }
    if (head != invalidUseNode) {
        const UseNode old = useHead_[to];
        useNext_[tail] = old;
        if (old != invalidUseNode)
            usePrev_[old] = tail;
        usePrev_[head] = useHeadFlag | to;
        useHead_[to] = head;
        useHead_[from] = invalidUseNode;
    }

    for (auto &p : outputs_)
        if (p.net == from)
            p.net = to;
}

void
Netlist::rewireUsesByScan(NetId from, NetId to)
{
    panicIf(from >= netSource_.size() || to >= netSource_.size(),
            "rewireUses: bad net");
    if (from == to)
        return;
    for (GateId gi = 0; gi < gateKind_.size(); ++gi) {
        if (gateIn0_[gi] == from)
            gateIn0_[gi] = to;
        if (gateIn1_[gi] == from)
            gateIn1_[gi] = to;
    }
    for (auto &p : outputs_)
        if (p.net == from)
            p.net = to;
    rebuildUseIndex();
}

NetId
Netlist::makeFeedback()
{
    return addDrivenNet(NetSource::Undriven, "feedback");
}

void
Netlist::resolveFeedback(NetId placeholder, NetId actual)
{
    panicIf(placeholder >= netSource_.size() ||
                actual >= netSource_.size(),
            "resolveFeedback: bad net");
    panicIf(netSource_[placeholder] != NetSource::Undriven,
            "resolveFeedback: placeholder already driven");
    rewireUses(placeholder, actual);
    // Mark the placeholder as a harmless constant so validate() does
    // not flag it; nothing references it any more.
    netSource_[placeholder] = NetSource::Const0;
}

std::vector<GateId>
Netlist::removeGates(const std::vector<bool> &dead)
{
    panicIf(dead.size() != gateKind_.size(),
            "removeGates: flag vector size mismatch");

    std::vector<GateId> remap(gateKind_.size(), invalidGate);
    GateId next = 0;
    for (GateId gi = 0; gi < gateKind_.size(); ++gi) {
        if (dead[gi])
            continue;
        remap[gi] = next;
        if (next != gi) {
            gateKind_[next] = gateKind_[gi];
            gateIn0_[next] = gateIn0_[gi];
            gateIn1_[next] = gateIn1_[gi];
            gateOut_[next] = gateOut_[gi];
        }
        ++next;
    }
    gateKind_.resize(next);
    gateIn0_.resize(next);
    gateIn1_.resize(next);
    gateOut_.resize(next);

    // Removed gates may have been a net's only driver.
    for (NetId n = 0; n < netSource_.size(); ++n)
        if (netSource_[n] == NetSource::GateOutput)
            netSource_[n] = NetSource::Undriven;
    for (NetId out : gateOut_)
        netSource_[out] = NetSource::GateOutput;

    rebuildDrivers();
    rebuildUseIndex();
    return remap;
}

std::vector<NetId>
Netlist::compact()
{
    const std::size_t old_nets = netSource_.size();
    std::vector<bool> keep(old_nets, false);
    for (GateId gi = 0; gi < gateKind_.size(); ++gi) {
        keep[gateOut_[gi]] = true;
        keep[gateIn0_[gi]] = true;
        if (gateIn1_[gi] != invalidNet)
            keep[gateIn1_[gi]] = true;
    }
    for (const auto &p : inputs_)
        keep[p.net] = true;
    for (const auto &p : outputs_)
        keep[p.net] = true;
    if (const0_ != invalidNet)
        keep[const0_] = true;
    if (const1_ != invalidNet)
        keep[const1_] = true;

    std::vector<NetId> remap(old_nets, invalidNet);
    NetId next = 0;
    for (NetId n = 0; n < old_nets; ++n)
        if (keep[n])
            remap[n] = next++;
    if (next == old_nets)
        return remap; // nothing to drop

    // Slide the kept columns down in place (stable order). The name
    // pool keeps any dead names; refs of surviving nets stay valid.
    for (NetId n = 0; n < old_nets; ++n) {
        if (remap[n] == invalidNet || remap[n] == n)
            continue;
        netSource_[remap[n]] = netSource_[n];
        netNameRef_[remap[n]] = netNameRef_[n];
    }
    netSource_.resize(next);
    netNameRef_.resize(next);

    for (GateId gi = 0; gi < gateKind_.size(); ++gi) {
        gateOut_[gi] = remap[gateOut_[gi]];
        gateIn0_[gi] = remap[gateIn0_[gi]];
        if (gateIn1_[gi] != invalidNet)
            gateIn1_[gi] = remap[gateIn1_[gi]];
    }
    for (auto &p : inputs_)
        p.net = remap[p.net];
    for (auto &p : outputs_)
        p.net = remap[p.net];
    if (const0_ != invalidNet)
        const0_ = remap[const0_];
    if (const1_ != invalidNet)
        const1_ = remap[const1_];

    rebuildDrivers();
    rebuildUseIndex();
    return remap;
}

std::uint64_t
wiringFnv(const Netlist &nl)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (GateId g = 0; g < nl.gateCount(); ++g) {
        mix(std::uint64_t(nl.gateKind(g)));
        mix(nl.gateIn0(g));
        mix(nl.gateIn1(g));
        mix(nl.gateOut(g));
    }
    mix(nl.netCount());
    return h;
}

} // namespace printed
