#include "netlist.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "common/metrics.hh"

namespace printed
{

Netlist::Netlist(std::string name)
    : name_(std::move(name))
{}

std::uint32_t
Netlist::internName(const std::string &name)
{
    unseal();
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
    unseal();
    if (driverHead_[n] == invalidGate)
        driverHead_[n] = gi;
    else
        driverNext_[driverTail_[n]] = gi;
    driverTail_[n] = gi;
}

void
Netlist::rebuildDrivers()
{
    unseal();
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
    unseal();
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
    unseal();
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
    unseal();
    useNext_.push_back(invalidUseNode);
    useNext_.push_back(invalidUseNode);
    usePrev_.push_back(invalidUseNode);
    usePrev_.push_back(invalidUseNode);
    if (gateIn0_[gi] != invalidNet)
        linkUse(gateIn0_[gi], UseNode(gi) * 2);
    if (gateIn1_[gi] != invalidNet)
        linkUse(gateIn1_[gi], UseNode(gi) * 2 + 1);
}

void
Netlist::rebuildUseIndex()
{
    unseal();
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
    unseal();
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
    unseal();
    return addDrivenNet(NetSource::Undriven, std::move(name));
}

NetId
Netlist::addInput(const std::string &name)
{
    unseal();
    const NetId id = addDrivenNet(NetSource::Input, name);
    inputs_.push_back({name, id});
    return id;
}

void
Netlist::addOutput(const std::string &name, NetId net)
{
    unseal();
    panicIf(net >= netSource_.size(), "addOutput: bad net");
    outputs_.push_back({name, net});
}

NetId
Netlist::constZero()
{
    unseal();
    if (const0_ == invalidNet)
        const0_ = addDrivenNet(NetSource::Const0, "const0");
    return const0_;
}

NetId
Netlist::constOne()
{
    unseal();
    if (const1_ == invalidNet)
        const1_ = addDrivenNet(NetSource::Const1, "const1");
    return const1_;
}

NetId
Netlist::addGate(CellKind kind, NetId a, NetId b)
{
    unseal();
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
    unseal();
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
    unseal();
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
    unseal();
    return addGate(CellKind::DFFX1, d);
}

NetId
Netlist::addFlopReset(NetId d, NetId rn)
{
    unseal();
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
    const auto histo = cellHistogram();
    std::size_t n = 0;
    for (std::size_t k = 0; k < numCellKinds; ++k)
        if (cellIsSequential(static_cast<CellKind>(k)))
            n += histo[k];
    return n;
}

void
Netlist::validate() const
{
    if (seal_)
        return;
    static metrics::Counter &validations =
        metrics::counter("netlist.validations");
    validations.add(1);

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
    if (seal_)
        return seal_->order;
    static metrics::Counter &levelizations =
        metrics::counter("netlist.levelizations");
    levelizations.add(1);

    // Kahn's algorithm over combinational gates only, with a FIFO
    // ready list. A net is "ready" when all its (combinational)
    // drivers have been scheduled; sequential outputs, inputs, and
    // constants are ready from the start. A net's readers are
    // released in ascending gate id, a gate twice when it reads the
    // net on both pins; test_netlist pins this schedule against a
    // per-net vector reference.
    const std::size_t gates = gateKind_.size();
    const std::size_t nets = netSource_.size();

    // One scratch block: pending drivers per net, CSR offsets per net
    // (plus the end), unmet inputs per gate, and the CSR fanout (at
    // most two pins per gate): the combinational gates reading each
    // net while it still has pending drivers.
    std::vector<std::uint32_t> scratch(2 * nets + 1 + 3 * gates, 0);
    std::uint32_t *const pending = scratch.data();
    std::uint32_t *const offset = pending + nets;
    std::uint32_t *const unmet = offset + nets + 1;
    GateId *const fanout = unmet + gates;

    for (GateId gi = 0; gi < gates; ++gi)
        if (!cellIsSequential(gateKind_[gi]))
            ++pending[gateOut_[gi]];

    // For multi-driver TSBUF buses a gate's own output may be a
    // "pending" net, but it must not wait on itself; we count a
    // dependency per input net only.
    for (GateId gi = 0; gi < gates; ++gi) {
        if (cellIsSequential(gateKind_[gi]))
            continue;
        for (NetId n : {gateIn0_[gi], gateIn1_[gi]}) {
            if (n != invalidNet && pending[n] > 0) {
                ++offset[n];
                ++unmet[gi];
            }
        }
    }
    // Inclusive prefix sums make offset[n] the end of net n's range;
    // filling back to front then leaves it at the range's start.
    std::uint32_t edges = 0;
    for (NetId n = 0; n < nets; ++n)
        offset[n] = edges += offset[n];
    offset[nets] = edges;
    for (GateId gi = GateId(gates); gi-- > 0;) {
        if (cellIsSequential(gateKind_[gi]))
            continue;
        for (NetId n : {gateIn0_[gi], gateIn1_[gi]})
            if (n != invalidNet && pending[n] > 0)
                fanout[--offset[n]] = gi;
    }

    // `order` doubles as the FIFO; `scanned` is its consumption
    // cursor.
    std::vector<GateId> order;
    order.reserve(gates);
    std::size_t comb = 0;
    for (GateId gi = 0; gi < gates; ++gi) {
        if (cellIsSequential(gateKind_[gi]))
            continue;
        ++comb;
        if (unmet[gi] == 0)
            order.push_back(gi);
    }

    for (std::size_t scanned = 0; scanned < order.size();
         ++scanned) {
        const NetId out = gateOut_[order[scanned]];
        panicIf(pending[out] == 0, "levelize: driver count underflow");
        if (--pending[out] == 0) {
            for (std::uint32_t f = offset[out]; f < offset[out + 1];
                 ++f) {
                const GateId reader = fanout[f];
                panicIf(unmet[reader] == 0,
                        "levelize: dependency underflow");
                if (--unmet[reader] == 0)
                    order.push_back(reader);
            }
        }
    }

    if (order.size() != comb)
        fatal("Netlist '" + name_ + "': combinational cycle detected (" +
              std::to_string(comb - order.size()) + " gates unschedulable)");
    return order;
}

std::array<std::size_t, numCellKinds>
Netlist::cellHistogram() const
{
    if (seal_)
        return seal_->histogram;
    std::array<std::size_t, numCellKinds> histo{};
    for (CellKind kind : gateKind_)
        ++histo[static_cast<std::size_t>(kind)];
    return histo;
}

void
Netlist::seal()
{
    if (seal_)
        return;
    validate();
    seal_ = std::make_shared<const Seal>(
        Seal{levelize(), cellHistogram()});
}

void
Netlist::rewireUses(NetId from, NetId to)
{
    unseal();
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
    unseal();
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
    unseal();
    return addDrivenNet(NetSource::Undriven, "feedback");
}

void
Netlist::resolveFeedback(NetId placeholder, NetId actual)
{
    unseal();
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
    unseal();
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
    unseal();
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
