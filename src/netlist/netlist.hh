/**
 * @file
 * Gate-level netlist intermediate representation.
 *
 * A Netlist is a DAG of standard-cell instances (Gates) connected by
 * Nets. Only the eleven cells of the printed standard-cell libraries
 * (Table 2) can be instantiated, mirroring the constraint the paper's
 * synthesis flow works under. Sequential cells (DFFX1 / DFFNRX1 /
 * LATCHX1) break combinational paths; tri-state buffers may share an
 * output net to form a resolved bus.
 *
 * Storage is struct-of-arrays: gate kind/in0/in1/out live in four
 * flat vectors, net source tags in another, and net names are
 * interned into one shared character pool (most nets are unnamed, so
 * a per-net std::string would waste both memory and construction
 * time at million-gate scale). Driver sets are an intrusive per-net
 * linked list threaded through a per-gate next array, and a
 * maintained use-index (net -> reading pins) makes rewireUses
 * O(fanout) instead of O(gates). The public Gate struct remains the
 * value type handed out by gate() and consumed by serialization.
 *
 * The same netlist object is consumed by:
 *   - printed::sim     (functional gate-level simulation + activity)
 *   - printed::analysis (area, static timing, power)
 *   - printed::synth   (optimization passes)
 *
 * A finished netlist is sealed (seal()): it has been validated once
 * and carries its level schedule and cell histogram, so the
 * consumers above read them instead of recomputing them. Every
 * mutating member drops the seal.
 */

#ifndef PRINTED_NETLIST_NETLIST_HH
#define PRINTED_NETLIST_NETLIST_HH

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tech/cell.hh"

namespace printed
{

/** Index of a net within its Netlist. */
using NetId = std::uint32_t;

/** Index of a gate within its Netlist. */
using GateId = std::uint32_t;

/** Sentinel for "no net" (e.g. the unused second input of an INV). */
constexpr NetId invalidNet = std::numeric_limits<NetId>::max();

/** Sentinel for "no gate". */
constexpr GateId invalidGate = std::numeric_limits<GateId>::max();

/**
 * One gate input pin in the use-index: node = gate * 2 + pin.
 * Pin 0 is in0, pin 1 is in1.
 */
using UseNode = std::uint32_t;

/** Sentinel for "no use node". */
constexpr UseNode invalidUseNode =
    std::numeric_limits<UseNode>::max();

/**
 * One standard-cell instance, as a value. Internally gates are
 * stored as four parallel arrays; gate() assembles this view.
 */
struct Gate
{
    CellKind kind = CellKind::INVX1;
    NetId in0 = invalidNet; ///< first input (D for flops, A for TSBUF)
    NetId in1 = invalidNet; ///< second input (RN for DFFNR, EN for TSBUF)
    NetId out = invalidNet; ///< output net (Q for sequential cells)

    bool operator==(const Gate &) const = default;
};

/** How a net is driven. */
enum class NetSource : std::uint8_t
{
    Undriven,   ///< error unless it is an input/constant
    Input,      ///< primary input
    Const0,     ///< constant logic 0 (tie-low)
    Const1,     ///< constant logic 1 (tie-high)
    GateOutput, ///< driven by one gate (or several TSBUFs)
};

/** A named primary output and the net it exposes. */
struct PortBinding
{
    std::string name;
    NetId net = invalidNet;

    bool operator==(const PortBinding &) const = default;
};

/**
 * A flat gate-level module.
 *
 * Construction API returns NetIds so synthesis generators can be
 * written in a dataflow style:
 *
 *     NetId sum = nl.addGate(CellKind::XOR2X1, a, b);
 */
class Netlist
{
  public:
    explicit Netlist(std::string name = "top");

    /** Module name (used in reports). */
    const std::string &name() const { return name_; }

    // ------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------

    /** Create a fresh undriven net (to be driven later). */
    NetId addNet(std::string name = {});

    /** Create a named primary input. */
    NetId addInput(const std::string &name);

    /** Expose an existing net as a named primary output. */
    void addOutput(const std::string &name, NetId net);

    /** The constant-0 net (created on first use). */
    NetId constZero();

    /** The constant-1 net (created on first use). */
    NetId constOne();

    /**
     * Instantiate a cell driving a fresh net.
     * @param kind cell to instantiate
     * @param a first input
     * @param b second input (required iff the cell has two inputs)
     * @return the new output net
     */
    NetId addGate(CellKind kind, NetId a, NetId b = invalidNet);

    /**
     * Instantiate a tri-state buffer driving an existing bus net.
     * Multiple TSBUFs may drive the same bus; simulation checks that
     * at most one is enabled at a time.
     */
    GateId addTristate(NetId a, NetId en, NetId bus);

    /** D flip-flop: returns Q for the given D. */
    NetId addFlop(NetId d);

    /** D flip-flop with asynchronous active-low reset. */
    NetId addFlopReset(NetId d, NetId rn);

    // ------------------------------------------------------------
    // Access
    // ------------------------------------------------------------

    std::size_t netCount() const { return netSource_.size(); }
    std::size_t gateCount() const { return gateKind_.size(); }

    /** How net `n` is driven. */
    NetSource netSource(NetId n) const { return netSource_[n]; }

    /** Net name, or "" if unnamed (cold path: materializes). */
    std::string netName(NetId n) const;

    /** True when the net was given a name. */
    bool netHasName(NetId n) const { return netNameRef_[n] != 0; }

    /** First driving gate, or invalidGate (TSBUF buses have many). */
    GateId netFirstDriver(NetId n) const { return driverHead_[n]; }

    /**
     * The unique driving gate, or invalidGate when the net has no
     * driver or is a multiply-driven TSBUF bus.
     */
    GateId netSoleDriver(NetId n) const;

    /** Number of gates driving net `n` (walks the driver list). */
    std::size_t netDriverCount(NetId n) const;

    /** Visit the gates driving `n`, in gate-creation order. */
    template <typename Fn>
    void
    forEachDriver(NetId n, Fn &&fn) const
    {
        for (GateId g = driverHead_[n]; g != invalidGate;
             g = driverNext_[g])
            fn(g);
    }

    /** The constant-0 net id, or invalidNet if never created. */
    NetId constZeroId() const { return const0_; }

    /** The constant-1 net id, or invalidNet if never created. */
    NetId constOneId() const { return const1_; }

    /** Assembled value view of one gate. */
    Gate
    gate(GateId id) const
    {
        return {gateKind_[id], gateIn0_[id], gateIn1_[id],
                gateOut_[id]};
    }

    // Column accessors: hot loops touching one field should use
    // these instead of assembling a Gate.
    CellKind gateKind(GateId id) const { return gateKind_[id]; }
    NetId gateIn0(GateId id) const { return gateIn0_[id]; }
    NetId gateIn1(GateId id) const { return gateIn1_[id]; }
    NetId gateOut(GateId id) const { return gateOut_[id]; }

    /** Materialize all gates as values (serialization, tests). */
    std::vector<Gate> gateArray() const;

    /**
     * Rewrite a gate in place (the optimizer's mutation hook).
     * The output net cannot change (use removeGates + addGate);
     * the use-index is patched incrementally. Sequential cells may
     * not become combinational (or vice versa), and TSBUFs cannot
     * be created or destroyed this way.
     */
    void setGate(GateId id, CellKind kind, NetId in0,
                 NetId in1 = invalidNet);

    const std::vector<PortBinding> &inputs() const { return inputs_; }
    const std::vector<PortBinding> &outputs() const { return outputs_; }

    /** Primary input net by name; fatal() if absent. */
    NetId inputNet(const std::string &name) const;

    /** Human-readable net label: its name, or "net#<id>". */
    std::string netLabel(NetId id) const;

    /** Human-readable gate label: "<CELL>#<id> -> <net label>". */
    std::string gateLabel(GateId id) const;

    /** Primary output net by name; fatal() if absent. */
    NetId outputNet(const std::string &name) const;

    /** Number of sequential cells (LATCH/DFF/DFFNR). */
    std::size_t flopCount() const;

    /**
     * Check structural invariants: every net is driven (or is an
     * input/constant), gate pins reference valid nets, only TSBUFs
     * share output nets. panic()s on violation. Returns at once on
     * a sealed netlist; each full check counts one
     * `netlist.validations`.
     */
    void validate() const;

    /**
     * Topologically order the combinational gates. Sequential cell
     * outputs, constants, and primary inputs are sources. The
     * schedule is Kahn's algorithm with a FIFO ready list: ready
     * gates are seeded in ascending id, and a net whose last driver
     * is scheduled releases its readers in ascending gate id. The
     * optimizer's CSE keeps the first duplicate in this order, so
     * the schedule is part of the contract. fatal()s on a
     * combinational cycle. A sealed netlist returns its stored
     * schedule; each fresh one counts one `netlist.levelizations`.
     *
     * @return gate ids in evaluation order (sequential cells are not
     *         included; they are clocked separately).
     */
    std::vector<GateId> levelize() const;

    /** Per-cell-kind instance histogram (stored while sealed). */
    std::array<std::size_t, numCellKinds> cellHistogram() const;

    /**
     * Seal a finished netlist: validate() it, then store its
     * levelize() schedule and cellHistogram(). While sealed,
     * validate() returns at once and levelize(), cellHistogram() and
     * flopCount() return the stored results. Every non-const member
     * drops the seal; copies and moves carry it (a moved-from
     * netlist is unsealed). synth::optimize() and synth::harden()
     * seal what they return, while one thread owns it: const
     * members never write, so a shared const netlist stays race-free.
     * A no-op on a sealed netlist; panic()s/fatal()s as validate()
     * and levelize() do.
     */
    void seal();

    /** True from seal() until the next mutation. */
    bool sealed() const { return seal_ != nullptr; }

    // Mutation hooks for the optimizer (printed::synth).

    /**
     * Replace every reference to net `from` with `to`.
     * O(fanout(from) + outputs) via the maintained use-index.
     */
    void rewireUses(NetId from, NetId to);

    /**
     * Reference implementation of rewireUses: a full O(gates) pin
     * scan (the pre-use-index algorithm), kept as the test oracle
     * for the use-index. Produces an identical netlist.
     */
    void rewireUsesByScan(NetId from, NetId to);

    /** Number of gate input pins reading net `n` (O(fanout)). */
    std::size_t netUseCount(NetId n) const;

    /**
     * Visit every gate input pin reading net `n` as fn(gate, pin)
     * with pin in {0, 1}. The iteration order is unspecified but
     * deterministic. fn must not mutate the netlist.
     */
    template <typename Fn>
    void
    forEachUse(NetId n, Fn &&fn) const
    {
        for (UseNode u = useHead_[n]; u != invalidUseNode;
             u = useNext_[u])
            fn(GateId(u >> 1), unsigned(u & 1));
    }

    /**
     * Create a forward-reference net for sequential feedback loops
     * (e.g. a register whose next-value mux reads its own output).
     * Must be resolved with resolveFeedback() before validate().
     */
    NetId makeFeedback();

    /**
     * Resolve a feedback placeholder: every use of `placeholder` is
     * rewired to `actual` and the placeholder becomes inert.
     */
    void resolveFeedback(NetId placeholder, NetId actual);

    /**
     * Remove gates flagged in `dead` (by GateId). Nets are left in
     * place (cheap) but become undriven; callers must not leave live
     * uses of removed outputs.
     *
     * @return old-to-new GateId remap (invalidGate for removed).
     */
    std::vector<GateId> removeGates(const std::vector<bool> &dead);

    /**
     * Drop orphaned nets (referenced by no gate, port, or constant
     * handle) and renumber the survivors densely, preserving
     * creation order. Port bindings, constant handles, gate pins,
     * and all indexes are remapped/rebuilt. Stability means a NetId
     * is unchanged unless some lower-numbered net was dropped —
     * e.g. primary inputs created before any logic keep their ids.
     *
     * @return old-to-new NetId remap (invalidNet for dropped).
     */
    std::vector<NetId> compact();

  private:
    /** What seal() stores; immutable, so copies share it. */
    struct Seal
    {
        std::vector<GateId> order;
        std::array<std::size_t, numCellKinds> histogram{};
    };

    /** Drop the seal; every non-const member calls this first. */
    void
    unseal()
    {
        if (seal_)
            seal_.reset();
    }

    NetId addDrivenNet(NetSource source, std::string name = {});

    /** Intern a name into the pool; 0 for the empty name. */
    std::uint32_t internName(const std::string &name);

    /** Append gate `gi` (just pushed) to its output's driver list. */
    void appendDriver(NetId n, GateId gi);

    /** Rebuild every driver list from the gate array (O(gates)). */
    void rebuildDrivers();

    // ------------------------------------------------------------
    // Use-index: for every net, the doubly-linked list of gate
    // input pins reading it, threaded through two flat arrays
    // indexed by UseNode (gate*2 + pin). usePrev_ encodes either
    // the predecessor node or, with useHeadFlag set, the owning
    // net (the node is the list head). Maintained incrementally by
    // every mutation so rewireUses is O(fanout), never O(gates).
    // ------------------------------------------------------------

    static constexpr UseNode useHeadFlag = 1u << 31;

    /** Link pin node `u` at the head of net `n`'s use list. */
    void linkUse(NetId n, UseNode u);

    /** Unlink pin node `u` from whatever list holds it. */
    void unlinkUse(UseNode u);

    /** Append the use nodes of the newest gate (after push_back). */
    void linkGateUses(GateId gi);

    /** Rebuild the whole index from the gate pins (O(gates)). */
    void rebuildUseIndex();

    /** panic() unless the use-index matches the gate pins. */
    void checkUseIndex() const;

    std::string name_;

    // Nets, struct-of-arrays.
    std::vector<NetSource> netSource_;
    std::vector<std::uint32_t> netNameRef_; ///< 0, or pool offset+1
    std::string namePool_; ///< NUL-terminated interned names
    std::unordered_map<std::string, std::uint32_t> internMap_;

    // Gates, struct-of-arrays.
    std::vector<CellKind> gateKind_;
    std::vector<NetId> gateIn0_;
    std::vector<NetId> gateIn1_;
    std::vector<NetId> gateOut_;

    // Driver index: per-net intrusive list in gate-creation order.
    std::vector<GateId> driverHead_; ///< per net: first driver
    std::vector<GateId> driverTail_; ///< per net: last driver
    std::vector<GateId> driverNext_; ///< per gate: next driver

    std::vector<PortBinding> inputs_;
    std::vector<PortBinding> outputs_;
    std::vector<UseNode> useHead_; ///< per net: first use node
    std::vector<UseNode> useNext_; ///< per node: next in net list
    std::vector<UseNode> usePrev_; ///< per node: prev node or head
    NetId const0_ = invalidNet;
    NetId const1_ = invalidNet;

    std::shared_ptr<const Seal> seal_; ///< null while unsealed
};

/** A bus is simply an ordered list of nets, LSB first. */
using Bus = std::vector<NetId>;

/**
 * FNV-1a over a netlist's gate columns (kind, in0, in1, out of every
 * gate, in gate order, each as 8 little-endian bytes) and its net
 * count: a fingerprint of the wiring. Fault-MC defects are drawn by
 * gate id, so two netlists with the same fingerprint and the same
 * ports see the same defect maps; the golden tests pin it per core.
 */
std::uint64_t wiringFnv(const Netlist &nl);

} // namespace printed

#endif // PRINTED_NETLIST_NETLIST_HH
