#include "batch_simulator.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/logging.hh"
#include "common/metrics.hh"

namespace printed
{

namespace
{

/**
 * A combinational cell as four lane-word masks:
 * out = ((a & b) & andM | (a | b) & orM | (a ^ b) & xorM) ^ inv.
 * Exactly one term mask of a row is all ones. An INV reads in1 = in0,
 * so it takes the NAND row: ~(a & a) = ~a. Sequential cells and the
 * TSBUF have no row (the settle walk never reads theirs).
 */
struct CombMasks
{
    LaneMask andM = 0;
    LaneMask orM = 0;
    LaneMask xorM = 0;
    LaneMask inv = 0;
};

constexpr std::array<CombMasks, numCellKinds> combMasks = [] {
    constexpr LaneMask all = BatchGateSimulator::allLanes;
    std::array<CombMasks, numCellKinds> t{};
    auto row = [&](CellKind k) -> CombMasks & {
        return t[static_cast<std::size_t>(k)];
    };
    row(CellKind::INVX1) = {all, 0, 0, all};
    row(CellKind::NAND2X1) = {all, 0, 0, all};
    row(CellKind::NOR2X1) = {0, all, 0, all};
    row(CellKind::AND2X1) = {all, 0, 0, 0};
    row(CellKind::OR2X1) = {0, all, 0, 0};
    row(CellKind::XOR2X1) = {0, 0, all, 0};
    row(CellKind::XNOR2X1) = {0, 0, all, all};
    return t;
}();

} // anonymous namespace

BatchGateSimulator::BatchGateSimulator(const Netlist &netlist)
    : netlist_(netlist)
{
    netlist_.validate();
    auto opFor = [&](GateId gi) {
        const Gate g = netlist_.gate(gi);
        return Op{g.in0, g.in1 != invalidNet ? g.in1 : g.in0, g.out, gi,
                  g.kind, false};
    };
    for (GateId gi : netlist_.levelize())
        ops_.push_back(opFor(gi));
    seqBegin_ = ops_.size();
    for (GateId gi = 0; gi < netlist_.gateCount(); ++gi) {
        const CellKind kind = netlist_.gateKind(gi);
        if (cellIsSequential(kind))
            ops_.push_back(opFor(gi));
        if (kind == CellKind::DFFNRX1)
            hasAsyncClear_ = true;
        if (kind == CellKind::TSBUFX1)
            busNets_.push_back(netlist_.gateOut(gi));
    }
    opOf_.assign(netlist_.gateCount(), 0);
    for (std::size_t i = 0; i < ops_.size(); ++i)
        opOf_[ops_[i].gate] = std::uint32_t(i);
    std::sort(busNets_.begin(), busNets_.end());
    busNets_.erase(std::unique(busNets_.begin(), busNets_.end()),
                   busNets_.end());

    values_.assign(netlist_.netCount(), 0);
    seqState_.assign(netlist_.gateCount(), 0);
    busDriven_.assign(netlist_.netCount(), 0);
    toggles_.assign(netlist_.gateCount(), 0);
    reset();
}

BatchGateSimulator::~BatchGateSimulator()
{
    flushMetrics();
}

void
BatchGateSimulator::flushMetrics() const
{
    if (cycles_ == 0 && settles_ == 0 && killed_ == 0)
        return;
    static metrics::Counter &cycles =
        metrics::counter("sim.batch.cycles");
    static metrics::Counter &settles =
        metrics::counter("sim.batch.settles");
    static metrics::Counter &toggles =
        metrics::counter("sim.batch.toggles");
    static metrics::Counter &kills =
        metrics::counter("sim.batch.kills");
    cycles.add(cycles_);
    settles.add(settles_);
    toggles.add(totalToggles());
    kills.add(std::popcount(killed_));
}

void
BatchGateSimulator::reset()
{
    flushMetrics();
    std::fill(seqState_.begin(), seqState_.end(), 0);
    std::fill(toggles_.begin(), toggles_.end(), 0);
    std::fill(values_.begin(), values_.end(), 0);
    cycles_ = 0;
    settles_ = 0;
    for (NetId n = 0; n < netlist_.netCount(); ++n)
        if (netlist_.netSource(n) == NetSource::Const1)
            values_[n] = allLanes;
    observed_ = allLanes;
    killed_ = 0;
    killReason_.fill(KillReason::None);
    killGate_.fill(invalidGate);
}

// ----------------------------------------------------------------
// Fault overlay
// ----------------------------------------------------------------

void
BatchGateSimulator::setLaneFaults(
    unsigned lane, const std::vector<InjectedFault> &faults)
{
    panicIf(lane >= laneCount, "setLaneFaults: bad lane");
    if (faults.empty())
        return;
    if (faultM0_.empty()) {
        faultM0_.assign(netlist_.gateCount(), 0);
        faultM1_.assign(netlist_.gateCount(), 0);
        faultBridge_.resize(netlist_.gateCount());
    }
    const LaneMask bit = LaneMask(1) << lane;
    for (const InjectedFault &f : faults) {
        panicIf(f.gate >= netlist_.gateCount(),
                "setLaneFaults: bad gate id");
        panicIf(f.kind == FaultKind::BridgeInput &&
                    f.bridge >= netlist_.netCount(),
                "setLaneFaults: bad bridge net");
        if (f.kind == FaultKind::None)
            continue;
        Op &op = ops_[opOf_[f.gate]];
        if (!op.faulted) {
            op.faulted = true;
            faultedGates_.push_back(f.gate);
        }
        // Last fault wins per (gate, lane), as the scalar engine's
        // setFaults overwrites the per-gate overlay slot.
        faultM0_[f.gate] &= ~bit;
        faultM1_[f.gate] &= ~bit;
        for (BridgeLanes &b : faultBridge_[f.gate])
            b.lanes &= ~bit;
        switch (f.kind) {
          case FaultKind::StuckAt0:
            faultM0_[f.gate] |= bit;
            break;
          case FaultKind::StuckAt1:
            faultM1_[f.gate] |= bit;
            break;
          case FaultKind::BridgeInput: {
            auto &bridges = faultBridge_[f.gate];
            bool merged = false;
            for (BridgeLanes &b : bridges) {
                if (b.net == f.bridge) {
                    b.lanes |= bit;
                    merged = true;
                    break;
                }
            }
            if (!merged)
                bridges.push_back({bit, f.bridge});
            break;
          }
          case FaultKind::None:
            break;
        }
    }
}

void
BatchGateSimulator::clearFaults()
{
    for (GateId gi : faultedGates_) {
        ops_[opOf_[gi]].faulted = false;
        faultM0_[gi] = 0;
        faultM1_[gi] = 0;
        faultBridge_[gi].clear();
    }
    faultedGates_.clear();
    activations_.fill(0);
}

LaneMask
BatchGateSimulator::applyFault(GateId gi, LaneMask out,
                               LaneMask countMask)
{
    LaneMask forced = out;
    forced &= ~faultM0_[gi];
    forced |= faultM1_[gi];
    // Wired-AND with the bridged trace (dominant-low short) on the
    // bridged lanes only.
    for (const BridgeLanes &b : faultBridge_[gi])
        forced &= ~b.lanes | values_[b.net];
    LaneMask d = (forced ^ out) & countMask;
    while (d) {
        ++activations_[unsigned(std::countr_zero(d))];
        d &= d - 1;
    }
    return forced;
}

// ----------------------------------------------------------------
// Inputs
// ----------------------------------------------------------------

void
BatchGateSimulator::setInput(NetId net, LaneMask laneWord)
{
    panicIf(netlist_.netSource(net) != NetSource::Input,
            "setInput: net is not a primary input");
    values_[net] = laneWord;
}

void
BatchGateSimulator::setInputAll(NetId net, bool value)
{
    setInput(net, value ? allLanes : 0);
}

void
BatchGateSimulator::setInputAll(const std::string &name, bool value)
{
    setInputAll(netlist_.inputNet(name), value);
}

void
BatchGateSimulator::setBusAll(const Bus &bus, std::uint64_t value)
{
    for (std::size_t i = 0; i < bus.size(); ++i)
        setInputAll(bus[i], (value >> i) & 1);
}

void
BatchGateSimulator::setBusLane(const Bus &bus, unsigned lane,
                               std::uint64_t value)
{
    panicIf(lane >= laneCount, "setBusLane: bad lane");
    const LaneMask bit = LaneMask(1) << lane;
    for (std::size_t i = 0; i < bus.size(); ++i) {
        panicIf(netlist_.netSource(bus[i]) != NetSource::Input,
                "setBusLane: net is not a primary input");
        if ((value >> i) & 1)
            values_[bus[i]] |= bit;
        else
            values_[bus[i]] &= ~bit;
    }
}

// ----------------------------------------------------------------
// Evaluation
// ----------------------------------------------------------------

void
BatchGateSimulator::kill(LaneMask lanes, KillReason reason,
                         GateId gate)
{
    lanes &= observed_;
    if (!lanes)
        return;
    killed_ |= lanes;
    observed_ &= ~lanes;
    while (lanes) {
        const unsigned lane = unsigned(std::countr_zero(lanes));
        killReason_[lane] = reason;
        killGate_[lane] = gate;
        lanes &= lanes - 1;
    }
}

void
BatchGateSimulator::killLanes(LaneMask lanes, KillReason reason,
                              GateId gate)
{
    kill(lanes, reason, gate);
}

void
BatchGateSimulator::combPass(LaneMask countLanes)
{
    // Activation counting is restricted to countLanes: the async-
    // clear second settle re-walks the order for every lane, but
    // the scalar engine re-walks only the sims whose async clear
    // actually changed something — counting again for unchanged
    // lanes would diverge from the per-lane scalar counts. (Toggle
    // counts need no mask: unchanged lanes recompute identical
    // values, so their change masks are zero in the second pass.)
    for (NetId n : busNets_)
        busDriven_[n] = 0;
    LaneMask *const values = values_.data();
    std::uint64_t *const toggles = toggles_.data();
    // observed_ changes only where a bus conflict kills lanes; the
    // local copy spares the loop a reload after every store.
    LaneMask observed = observed_;
    for (const Op &op : combOps()) {
        const LaneMask a = values[op.in0];
        const LaneMask b = values[op.in1];
        const LaneMask old = values[op.out];
        LaneMask out;
        if (op.kind != CellKind::TSBUFX1) [[likely]] {
            const CombMasks &m =
                combMasks[static_cast<std::size_t>(op.kind)];
            out = (((a & b) & m.andM) | ((a | b) & m.orM) |
                   ((a ^ b) & m.xorM)) ^
                  m.inv;
            if (op.faulted)
                out = applyFault(op.gate, out, countLanes & observed);
        } else {
            // in0 = A, in1 = EN. Per lane: disabled buffers
            // contribute nothing and the bus keeps its old value
            // when nothing drives it. Lanes where a second enabled
            // driver disagrees are killed (the scalar engine's
            // bus-conflict throw).
            const LaneMask en = b;
            LaneMask &busDriven = busDriven_[op.out];
            const LaneMask driven =
                op.faulted
                    ? applyFault(op.gate, a, en & countLanes & observed)
                    : a;
            const LaneMask conflict =
                busDriven & en & (old ^ driven) & observed;
            if (conflict) {
                kill(conflict, KillReason::BusConflict, op.gate);
                observed = observed_;
            }
            const LaneMask drive = en & ~busDriven;
            out = (old & ~drive) | (driven & drive);
            busDriven |= en;
        }
        toggles[op.gate] +=
            std::uint64_t(std::popcount((old ^ out) & observed));
        values[op.out] = out;
    }
    ++settles_;
}

void
BatchGateSimulator::evaluate()
{
    // Publish sequential state onto Q nets, honouring the
    // asynchronous clear of DFFNRX1 (Q forced low while RN is 0).
    // A defective Q trace overrides even the async clear.
    for (const Op &op : seqOps()) {
        LaneMask q = seqState_[op.gate];
        if (op.kind == CellKind::DFFNRX1)
            q &= values_[op.in1];
        if (op.faulted)
            q = applyFault(op.gate, q, observed_);
        values_[op.out] = q;
    }
    combPass();
    if (!hasAsyncClear_)
        return;
    // The async clear can depend on combinational logic (rare but
    // legal); settle once more so RN computed above is honoured.
    LaneMask changed = 0;
    for (const Op &op : seqOps()) {
        if (op.kind != CellKind::DFFNRX1)
            continue;
        const LaneMask m = ~values_[op.in1] & values_[op.out];
        if (!m)
            continue;
        LaneMask q = 0;
        if (op.faulted)
            q = applyFault(op.gate, 0, m & observed_);
        changed |= (values_[op.out] ^ q) & m;
        values_[op.out] = (values_[op.out] & ~m) | (q & m);
    }
    if (changed)
        combPass(changed);
}

void
BatchGateSimulator::step()
{
    for (const Op &op : seqOps()) {
        LaneMask next = 0;
        switch (op.kind) {
          case CellKind::DFFX1:
            next = values_[op.in0];
            break;
          case CellKind::DFFNRX1:
            next = values_[op.in0] & values_[op.in1];
            break;
          case CellKind::LATCHX1: {
            // in0 = S, in1 = R. Lanes with S = R = 1 are killed
            // (the scalar engine's illegal-input throw).
            const LaneMask s = values_[op.in0];
            const LaneMask r = values_[op.in1];
            const LaneMask bad = s & r & observed_;
            if (bad)
                kill(bad, KillReason::LatchSetReset, op.gate);
            next = s | (~r & seqState_[op.gate]);
            break;
          }
          default:
            panic("BatchGateSimulator: non-sequential cell in seq "
                  "list");
        }
        if (op.faulted)
            next = applyFault(op.gate, next, observed_);
        const LaneMask d = (seqState_[op.gate] ^ next) & observed_;
        if (d)
            toggles_[op.gate] += std::uint64_t(std::popcount(d));
        seqState_[op.gate] = next;
    }
    ++cycles_;
}

void
BatchGateSimulator::cycle()
{
    evaluate();
    step();
    evaluate();
}

// ----------------------------------------------------------------
// Reading
// ----------------------------------------------------------------

std::uint64_t
BatchGateSimulator::readBusLane(const Bus &bus, unsigned lane) const
{
    panicIf(lane >= laneCount, "readBusLane: bad lane");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bus.size(); ++i)
        v |= ((values_[bus[i]] >> lane) & 1) << i;
    return v;
}

LaneMask
BatchGateSimulator::outputWord(const std::string &name) const
{
    return values_[netlist_.outputNet(name)];
}

std::uint64_t
BatchGateSimulator::totalToggles() const
{
    return std::accumulate(toggles_.begin(), toggles_.end(),
                           std::uint64_t(0));
}

void
BatchGateSimulator::saveState(std::vector<LaneMask> &out) const
{
    out.assign(values_.begin(), values_.end());
    for (const Op &op : seqOps())
        out.push_back(seqState_[op.gate]);
}

LaneMask
BatchGateSimulator::sameStateLanes(std::span<const LaneMask> saved) const
{
    panicIf(saved.size() != values_.size() + seqOps().size(),
            "sameStateLanes: not a saveState() copy");
    LaneMask diff = 0;
    for (std::size_t n = 0; n < values_.size(); ++n)
        diff |= values_[n] ^ saved[n];
    const LaneMask *savedSeq = saved.data() + values_.size();
    for (const Op &op : seqOps())
        diff |= seqState_[op.gate] ^ *savedSeq++;
    return ~diff;
}

} // namespace printed
