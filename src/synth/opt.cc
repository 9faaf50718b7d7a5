#include "opt.hh"

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace printed::synth
{

namespace
{

/** Three-value constant lattice per net. */
enum class Lat : std::uint8_t { Unknown, Zero, One };

Lat
latOfSource(NetSource source)
{
    switch (source) {
      case NetSource::Const0:
        return Lat::Zero;
      case NetSource::Const1:
        return Lat::One;
      default:
        return Lat::Unknown;
    }
}

/**
 * True when some gate matches a fold rule before any fold: a
 * combinational, non-TSBUF gate that reads a constant net or reads
 * one net on both pins. Every rule needs one of these, and only a
 * fold makes a gate output constant, so without such a gate
 * foldConstants has nothing to do.
 */
bool
hasFoldCandidate(const Netlist &nl)
{
    const auto constant = [&nl](NetId n) {
        return latOfSource(nl.netSource(n)) != Lat::Unknown;
    };
    for (GateId gi = 0; gi < nl.gateCount(); ++gi) {
        const CellKind kind = nl.gateKind(gi);
        if (cellIsSequential(kind) || kind == CellKind::TSBUFX1)
            continue;
        const NetId in0 = nl.gateIn0(gi), in1 = nl.gateIn1(gi);
        if (constant(in0) ||
            (in1 != invalidNet && (in1 == in0 || constant(in1))))
            return true;
    }
    return false;
}

/**
 * One constant-folding + identity-simplification sweep.
 * Returns number of gates simplified.
 */
std::size_t
foldConstants(Netlist &nl)
{
    // Materialize the constant nets up front so rewiring to them
    // never grows the net array mid-pass (and so net ids do not
    // depend on whether the pass finds work).
    nl.constZero();
    nl.constOne();
    if (!hasFoldCandidate(nl))
        return 0;

    std::vector<Lat> lat(nl.netCount(), Lat::Unknown);
    for (NetId n = 0; n < nl.netCount(); ++n)
        lat[n] = latOfSource(nl.netSource(n));

    std::size_t folded = 0;
    const auto order = nl.levelize();
    for (GateId gi : order) {
        const Gate g = nl.gate(gi);
        if (g.kind == CellKind::TSBUFX1)
            continue; // bus drivers are left alone

        const Lat a = lat[g.in0];
        const Lat b = g.in1 != invalidNet ? lat[g.in1] : Lat::Unknown;

        auto replace_with_const = [&](bool one) {
            nl.rewireUses(g.out, one ? nl.constOne() : nl.constZero());
            lat[g.out] = one ? Lat::One : Lat::Zero;
            ++folded;
        };
        auto replace_with_net = [&](NetId n) {
            nl.rewireUses(g.out, n);
            lat[g.out] = lat[n];
            ++folded;
        };
        auto become_inv_of = [&](NetId n) {
            nl.setGate(gi, CellKind::INVX1, n);
            lat[g.out] = lat[n] == Lat::Zero  ? Lat::One
                       : lat[n] == Lat::One   ? Lat::Zero
                                              : Lat::Unknown;
            ++folded;
        };

        const bool same_inputs = g.in1 != invalidNet && g.in0 == g.in1;

        switch (g.kind) {
          case CellKind::INVX1:
            if (a == Lat::Zero)
                replace_with_const(true);
            else if (a == Lat::One)
                replace_with_const(false);
            break;

          case CellKind::AND2X1:
            if (a == Lat::Zero || b == Lat::Zero)
                replace_with_const(false);
            else if (a == Lat::One)
                replace_with_net(g.in1);
            else if (b == Lat::One || same_inputs)
                replace_with_net(g.in0);
            break;

          case CellKind::OR2X1:
            if (a == Lat::One || b == Lat::One)
                replace_with_const(true);
            else if (a == Lat::Zero)
                replace_with_net(g.in1);
            else if (b == Lat::Zero || same_inputs)
                replace_with_net(g.in0);
            break;

          case CellKind::NAND2X1:
            if (a == Lat::Zero || b == Lat::Zero)
                replace_with_const(true);
            else if (a == Lat::One)
                become_inv_of(g.in1);
            else if (b == Lat::One || same_inputs)
                become_inv_of(g.in0);
            break;

          case CellKind::NOR2X1:
            if (a == Lat::One || b == Lat::One)
                replace_with_const(false);
            else if (a == Lat::Zero)
                become_inv_of(g.in1);
            else if (b == Lat::Zero || same_inputs)
                become_inv_of(g.in0);
            break;

          case CellKind::XOR2X1:
            if (same_inputs)
                replace_with_const(false);
            else if (a == Lat::Zero)
                replace_with_net(g.in1);
            else if (b == Lat::Zero)
                replace_with_net(g.in0);
            else if (a == Lat::One)
                become_inv_of(g.in1);
            else if (b == Lat::One)
                become_inv_of(g.in0);
            else if (a != Lat::Unknown && b != Lat::Unknown)
                replace_with_const(a != b);
            break;

          case CellKind::XNOR2X1:
            if (same_inputs)
                replace_with_const(true);
            else if (a == Lat::One)
                replace_with_net(g.in1);
            else if (b == Lat::One)
                replace_with_net(g.in0);
            else if (a == Lat::Zero)
                become_inv_of(g.in1);
            else if (b == Lat::Zero)
                become_inv_of(g.in0);
            break;

          default:
            break;
        }
    }
    return folded;
}

/** Collapse INV(INV(x)) -> x. Returns number of pairs removed. */
std::size_t
collapseInvPairs(Netlist &nl)
{
    std::size_t pairs = 0;
    for (GateId gi = 0; gi < nl.gateCount(); ++gi) {
        if (nl.gateKind(gi) != CellKind::INVX1)
            continue;
        const NetId in = nl.gateIn0(gi);
        if (nl.netSource(in) != NetSource::GateOutput)
            continue;
        const GateId drv = nl.netSoleDriver(in);
        if (drv == invalidGate ||
            nl.gateKind(drv) != CellKind::INVX1)
            continue;
        nl.rewireUses(nl.gateOut(gi), nl.gateIn0(drv));
        ++pairs;
    }
    return pairs;
}

/**
 * Structural CSE: combinational gates with identical kind and inputs
 * (inputs normalized for commutative cells) share one instance.
 *
 * The first gate seen with a (kind, lo, hi) key keeps it. A kept
 * gate's inputs are final once it is seen: their drivers come
 * earlier in the levelized order, so every rewire that could touch
 * them has happened. After one pass, then, no two live gates share
 * a key.
 */
std::size_t
shareDuplicates(Netlist &nl)
{
    const auto order = nl.levelize();

    // Flat open-addressing table, linear probing, at most half full.
    struct Slot
    {
        CellKind kind = CellKind::INVX1;
        NetId lo = invalidNet;
        NetId hi = invalidNet;
        GateId gate = invalidGate; ///< invalidGate: empty
    };
    unsigned bits = 4;
    while ((std::size_t(1) << bits) < 2 * order.size())
        ++bits;
    std::vector<Slot> seen(std::size_t(1) << bits);
    const std::size_t mask = seen.size() - 1;

    std::size_t shared = 0;
    for (GateId gi : order) {
        const Gate g = nl.gate(gi);
        if (g.kind == CellKind::TSBUFX1)
            continue;
        NetId lo = g.in0, hi = g.in1;
        // All 2-input combinational library cells are commutative.
        if (hi != invalidNet && hi < lo)
            std::swap(lo, hi);
        const std::uint64_t mix =
            (std::uint64_t(static_cast<unsigned>(g.kind)) << 58) ^
            (std::uint64_t(lo) << 29) ^ std::uint64_t(hi + 1);
        // Fibonacci hashing: the top bits of mix * 2^64/phi.
        std::size_t i =
            std::size_t((mix * 0x9E3779B97F4A7C15ull) >> (64 - bits));
        while (seen[i].gate != invalidGate &&
               (seen[i].kind != g.kind || seen[i].lo != lo ||
                seen[i].hi != hi))
            i = (i + 1) & mask;
        if (seen[i].gate == invalidGate) {
            seen[i] = {g.kind, lo, hi, gi};
            continue;
        }
        nl.rewireUses(g.out, nl.gateOut(seen[i].gate));
        ++shared;
    }
    return shared;
}

/**
 * Remove gates not reachable (backwards) from any primary output.
 * Returns the number of gates removed.
 */
std::size_t
sweepDead(Netlist &nl)
{
    // Live nets: transitive fan-in of the primary outputs.
    std::vector<bool> net_live(nl.netCount(), false);
    std::vector<NetId> work;
    for (const auto &p : nl.outputs()) {
        if (!net_live[p.net]) {
            net_live[p.net] = true;
            work.push_back(p.net);
        }
    }
    while (!work.empty()) {
        const NetId n = work.back();
        work.pop_back();
        nl.forEachDriver(n, [&](GateId gi) {
            for (NetId in : {nl.gateIn0(gi), nl.gateIn1(gi)}) {
                if (in != invalidNet && !net_live[in]) {
                    net_live[in] = true;
                    work.push_back(in);
                }
            }
        });
    }

    std::vector<bool> dead(nl.gateCount(), false);
    std::size_t removed = 0;
    for (GateId gi = 0; gi < nl.gateCount(); ++gi) {
        if (!net_live[nl.gateOut(gi)]) {
            dead[gi] = true;
            ++removed;
        }
    }
    if (removed)
        nl.removeGates(dead);
    return removed;
}

} // anonymous namespace

OptStats
optimize(Netlist &nl)
{
    trace::Span span("synth.optimize", nl.name());
    OptStats stats;
    stats.gatesBefore = nl.gateCount();

    bool progress = true;
    while (progress && stats.iterations < 32) {
        ++stats.iterations;
        std::size_t folded, pairs, shared = 0, dead = 0;
        {
            trace::Span s("opt.fold_constants");
            folded = foldConstants(nl);
        }
        {
            trace::Span s("opt.collapse_inv_pairs");
            pairs = collapseInvPairs(nl);
        }
        // A share pass leaves no two live gates with one key, and a
        // sweep leaves no dead gate. Only fold and collapse rewire
        // what those two passes read, so after the first iteration
        // they rerun only when fold or collapse changed something.
        if (stats.iterations == 1 || folded + pairs > 0) {
            {
                trace::Span s("opt.share_duplicates");
                shared = shareDuplicates(nl);
            }
            {
                trace::Span s("opt.sweep_dead");
                dead = sweepDead(nl);
            }
        }
        stats.constFolded += folded;
        stats.invPairs += pairs;
        stats.shared += shared;
        stats.deadRemoved += dead;
        progress = folded + pairs + shared + dead > 0;
    }

    {
        // Renumber nets densely: orphaned nets accumulated by the
        // rewiring passes above would otherwise bloat every per-net
        // array the consumers allocate (simulator values, timing
        // arrivals). Port bindings and constant handles survive the
        // remap by construction.
        trace::Span s("opt.compact");
        const std::size_t nets_before = nl.netCount();
        nl.compact();
        stats.netsRemoved = nets_before - nl.netCount();
    }

    nl.seal();
    stats.gatesAfter = nl.gateCount();

    static metrics::Counter &runs = metrics::counter("synth.opt.runs");
    static metrics::Counter &folded =
        metrics::counter("synth.opt.const_folded");
    static metrics::Counter &pairs =
        metrics::counter("synth.opt.inv_pairs");
    static metrics::Counter &shared =
        metrics::counter("synth.opt.shared");
    static metrics::Counter &dead =
        metrics::counter("synth.opt.dead_removed");
    static metrics::Counter &removed =
        metrics::counter("synth.opt.gates_removed");
    static metrics::Counter &nets =
        metrics::counter("synth.opt.nets_removed");
    runs.add(1);
    folded.add(stats.constFolded);
    pairs.add(stats.invPairs);
    shared.add(stats.shared);
    dead.add(stats.deadRemoved);
    nets.add(stats.netsRemoved);
    removed.add(stats.gatesAfter <= stats.gatesBefore
                    ? stats.gatesBefore - stats.gatesAfter
                    : 0);
    return stats;
}

} // namespace printed::synth
