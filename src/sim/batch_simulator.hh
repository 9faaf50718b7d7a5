/**
 * @file
 * 64-lane bit-parallel gate-level simulator.
 *
 * Packs 64 *independent trials* into one std::uint64_t per net: bit
 * L of a net's lane word is the value that net has in trial L. One
 * pass over the levelized gate order then advances all 64 trials at
 * once with plain bitwise ops (~ & | ^), which is what makes the
 * Monte-Carlo loops (functional-yield fault injection, the Figure 7
 * yield leg) run at word speed instead of one uint8_t per net per
 * trial.
 *
 * Relationship to GateSimulator (simulator.hh):
 *   - The scalar simulator stays the golden reference. For any lane
 *     L, the batch simulator computes exactly the values a scalar
 *     simulator would compute given lane L's inputs and lane L's
 *     fault overlay — tests/test_sim.cc fuzzes this equivalence.
 *   - Faults are per-gate *lane masks*: stuck-at-0 clears the
 *     faulted lanes of the output word, stuck-at-1 sets them, an
 *     input bridge wired-ANDs them with the bridged net's word.
 *   - Illegal electrical states (tri-state bus contention, SR latch
 *     with S=R=1) do not throw: the offending lanes are *killed* —
 *     retired from observation and recorded with a reason — while
 *     the other lanes continue. This replaces the scalar engine's
 *     SimulationError, whose per-trial throw/catch would serialize
 *     the batch.
 *
 * Determinism rule: the lane index never feeds an RNG. Lane L's
 * defect map comes from the (trial, replica) copy the caller packs
 * into it, so results are independent of lane packing and of how
 * many lanes a block actually fills.
 */

#ifndef PRINTED_SIM_BATCH_SIMULATOR_HH
#define PRINTED_SIM_BATCH_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hh"
#include "sim/simulator.hh"

namespace printed
{

/** Set of lanes, bit L = lane L. */
using LaneMask = std::uint64_t;

/**
 * 64-trial bit-parallel simulator bound to one (immutable) Netlist.
 *
 * Cell semantics, fault-overlay semantics, and evaluation order are
 * identical to GateSimulator per lane; see simulator.hh. The one
 * intentional divergence is error handling: where the scalar engine
 * throws SimulationError, this engine kills the offending lanes
 * (killedLanes() / killReason()) and keeps simulating the rest.
 *
 * Lane lifecycle: after reset() all 64 lanes are *observed*. A lane
 * leaves observation either by being killed (illegal state, or the
 * harness calling killLanes for a lane-level fatality such as a
 * wild memory write) or by being retired (retireLanes — e.g. its
 * program halted, or its trial slot is unused in a partial block).
 * Unobserved lanes still flow through the bitwise data path (their
 * bits are garbage-tolerated) but no longer contribute toggles,
 * fault activations, or new kills.
 */
class BatchGateSimulator
{
  public:
    /** Trials per batch: bits in the lane word. */
    static constexpr unsigned laneCount = 64;

    /** All 64 lanes. */
    static constexpr LaneMask allLanes = ~LaneMask(0);

    /** Why a lane was killed. */
    enum class KillReason : std::uint8_t
    {
        None,        ///< lane not killed
        BusConflict, ///< tri-state drivers disagreed (scalar: throw)
        LatchSetReset, ///< SR latch saw S=R=1 (scalar: throw)
        Harness,     ///< killed by the harness (e.g. wild RAM write)
    };

    /**
     * Validates and levelizes `netlist`, which must outlive the
     * simulator. A sealed netlist (Netlist::seal()) costs neither,
     * so a simulator built per pool worker on a shared core does no
     * per-worker graph work.
     */
    explicit BatchGateSimulator(const Netlist &netlist);

    /**
     * Flushes accumulated cycle/settle/toggle/kill counts into the
     * process metrics registry ("sim.batch.*"); reset() does the
     * same before zeroing, so the lane-word hot loops never touch
     * an atomic.
     */
    ~BatchGateSimulator();

    /**
     * Clear sequential state, activity counters, and lane records:
     * all 64 lanes return to observation. The fault overlay is kept
     * (mirroring GateSimulator::reset()).
     */
    void reset();

    // ------------------------------------------------------------
    // Driving inputs
    // ------------------------------------------------------------

    /** Drive a primary input with one value bit per lane. */
    void setInput(NetId net, LaneMask laneWord);

    /** Drive a primary input to the same value in every lane. */
    void setInputAll(NetId net, bool value);

    /** Drive a primary input by name, same value in every lane. */
    void setInputAll(const std::string &name, bool value);

    /** Drive a bus with the same integer in every lane (LSB first). */
    void setBusAll(const Bus &bus, std::uint64_t value);

    /** Drive one lane of a bus with an integer (LSB first). */
    void setBusLane(const Bus &bus, unsigned lane,
                    std::uint64_t value);

    // ------------------------------------------------------------
    // Simulation
    // ------------------------------------------------------------

    /** Settle the combinational logic (all lanes). */
    void evaluate();

    /** Clock edge: update flops/latches from settled values. */
    void step();

    /** Convenience: evaluate() then step() then evaluate(). */
    void cycle();

    // ------------------------------------------------------------
    // Reading values
    // ------------------------------------------------------------

    /** Settled lane word of a net. */
    LaneMask word(NetId net) const { return values_[net]; }

    /** Settled value of a net in one lane. */
    bool
    value(NetId net, unsigned lane) const
    {
        return (values_[net] >> lane) & 1;
    }

    /** Read one lane of a bus as an integer (LSB first). */
    std::uint64_t readBusLane(const Bus &bus, unsigned lane) const;

    /** Lane word of a named primary output. */
    LaneMask outputWord(const std::string &name) const;

    // ------------------------------------------------------------
    // Fault overlay (per-lane masks)
    // ------------------------------------------------------------

    /**
     * Overlay one lane's defect map. Accumulates on top of earlier
     * setLaneFaults() calls for other lanes; call clearFaults()
     * before starting a fresh batch of trials. Zeroes nothing else.
     */
    void setLaneFaults(unsigned lane,
                       const std::vector<InjectedFault> &faults);

    /** Drop the whole overlay and zero all activation counters. */
    void clearFaults();

    /**
     * Times a forced (faulty) value differed from the fault-free
     * one in this lane while it was observed, since clearFaults().
     * The batch analogue of GateSimulator::faultActivations().
     */
    std::uint64_t
    faultActivations(unsigned lane) const
    {
        return activations_[lane];
    }

    // ------------------------------------------------------------
    // Lane lifecycle (kill masks instead of SimulationError)
    // ------------------------------------------------------------

    /** Lanes still under observation. */
    LaneMask observedLanes() const { return observed_; }

    /** Lanes killed since reset() (sticky until reset). */
    LaneMask killedLanes() const { return killed_; }

    /** Why a lane was killed (None if it was not). */
    KillReason
    killReason(unsigned lane) const
    {
        return killReason_[lane];
    }

    /** Gate whose evaluation killed the lane (invalidGate for
     *  Harness kills and unkilled lanes). */
    GateId killGate(unsigned lane) const { return killGate_[lane]; }

    /**
     * Kill lanes from the harness (classified fatal, recorded, and
     * retired). Used for lane-level failures the simulator cannot
     * see, e.g. a faulted core writing outside its data RAM.
     */
    void killLanes(LaneMask lanes, KillReason reason,
                   GateId gate = invalidGate);

    /**
     * Retire lanes without a kill record: they stop contributing
     * toggles, activations, and kills. Used for halted programs and
     * for unused lanes of a partial trial block.
     */
    void retireLanes(LaneMask lanes) { observed_ &= ~lanes; }

    // ------------------------------------------------------------
    // Activity accounting
    // ------------------------------------------------------------

    /**
     * Output toggles of one gate since reset(), summed over all
     * lanes that were observed when the toggle happened (popcount
     * of the per-evaluation change mask). Equals the sum of the
     * scalar per-trial toggle counts when no lane leaves
     * observation.
     */
    std::uint64_t toggles(GateId gate) const { return toggles_[gate]; }

    /** Total output toggles across all gates since reset(). */
    std::uint64_t totalToggles() const;

    /** Number of step() calls since reset(). */
    std::uint64_t cycles() const { return cycles_; }

    /**
     * Combinational settle walks since reset(): one per evaluate(),
     * plus one per async-clear second settle. Batch analogue of
     * GateSimulator::settles().
     */
    std::uint64_t settles() const { return settles_; }

    // ------------------------------------------------------------
    // Lane state (loop detection)
    // ------------------------------------------------------------

    /**
     * Copy every lane word the next settle and clock edge read into
     * `out`: each net's word, then each sequential cell's state.
     * Activity counters are not part of it.
     */
    void saveState(std::vector<LaneMask> &out) const;

    /** Lanes whose every net and state word equals a saveState()
     *  copy. */
    LaneMask sameStateLanes(std::span<const LaneMask> saved) const;

  private:
    /**
     * One gate of the flat op list: everything a settle walk reads
     * per gate, in one record.
     */
    struct Op
    {
        NetId in0 = invalidNet;
        /** = in0 for one-input cells: an INV settles as the NAND
         *  of in0 with itself. */
        NetId in1 = invalidNet;
        NetId out = invalidNet;
        GateId gate = invalidGate;
        CellKind kind = CellKind::INVX1;
        bool faulted = false; ///< some lane has a fault on this gate
    };

    /** One bridged-input fault: the affected lanes and aggressor. */
    struct BridgeLanes
    {
        LaneMask lanes = 0;
        NetId net = invalidNet;
    };

    /** Combinational ops in levelized order. */
    std::span<const Op>
    combOps() const
    {
        return std::span<const Op>(ops_).first(seqBegin_);
    }

    /** Sequential ops in gate-id order. */
    std::span<const Op>
    seqOps() const
    {
        return std::span<const Op>(ops_).subspan(seqBegin_);
    }

    /** One walk of the levelized order; fault-activation counting
     *  restricted to countLanes (see the second-settle note). */
    void combPass(LaneMask countLanes = allLanes);

    /**
     * Apply the per-gate fault masks to a fault-free lane word;
     * lanes in countMask that end up forced to a different value
     * bump their activation counters.
     */
    LaneMask applyFault(GateId gi, LaneMask out, LaneMask countMask);

    void kill(LaneMask lanes, KillReason reason, GateId gate);

    /** Add the counts since the last reset() to "sim.batch.*". */
    void flushMetrics() const;

    const Netlist &netlist_;
    /**
     * Flat op list: the combinational gates in levelized order, then
     * (from seqBegin_) the sequential cells in gate-id order.
     * setLaneFaults() and clearFaults() keep Op::faulted current.
     */
    std::vector<Op> ops_;
    std::size_t seqBegin_ = 0;
    std::vector<std::uint32_t> opOf_; ///< per gate: its index in ops_
    std::vector<NetId> busNets_;   ///< distinct TSBUF output nets
    bool hasAsyncClear_ = false;   ///< any DFFNRX1 present
    std::vector<LaneMask> values_;     ///< per-net lane word
    std::vector<LaneMask> seqState_;   ///< per-seq-gate Q lane word
    std::vector<LaneMask> busDriven_;  ///< per-net: TSBUF drove lanes
    std::vector<std::uint64_t> toggles_; ///< per-gate toggle popcounts
    std::uint64_t cycles_ = 0;
    std::uint64_t settles_ = 0;

    LaneMask observed_ = allLanes;
    LaneMask killed_ = 0;
    std::array<KillReason, laneCount> killReason_{};
    std::array<GateId, laneCount> killGate_{};

    std::vector<LaneMask> faultM0_;  ///< per-gate stuck-at-0 lanes
    std::vector<LaneMask> faultM1_;  ///< per-gate stuck-at-1 lanes
    std::vector<std::vector<BridgeLanes>> faultBridge_;
    std::vector<GateId> faultedGates_; ///< for cheap clearFaults()
    std::array<std::uint64_t, laneCount> activations_{};
};

} // namespace printed

#endif // PRINTED_SIM_BATCH_SIMULATOR_HH
