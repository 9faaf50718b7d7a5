/**
 * @file
 * Levelized two-value gate-level simulator.
 *
 * Simulates a Netlist cycle by cycle: evaluate() settles the
 * combinational logic in topological order, step() clocks the
 * sequential cells. Used for
 *
 *   - functional verification of synthesized blocks against golden
 *     C++ models (tests/),
 *   - measured switching-activity factors that feed the power model
 *     (the paper reports an average Design Compiler activity of
 *     0.88; we can reproduce activity from simulation instead of
 *     assuming it),
 *   - gate-level fault injection (analysis/fault.hh): a defect map
 *     can be overlaid on the simulator without copying the netlist,
 *     so Monte-Carlo functional-yield trials stay cheap.
 */

#ifndef PRINTED_SIM_SIMULATOR_HH
#define PRINTED_SIM_SIMULATOR_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/netlist.hh"

namespace printed
{

/**
 * Runtime error raised by the simulator for electrically illegal
 * states (SR latch with S=R=1, tri-state bus contention). Unlike
 * panic(), these states are reachable by *valid* netlists under
 * fault injection - a stuck-at defect can enable two bus drivers at
 * once - so they are structured and catchable, carrying the
 * offending cell and net labels.
 */
class SimulationError : public std::runtime_error
{
  public:
    SimulationError(const std::string &what, std::string cell,
                    std::string net)
        : std::runtime_error(what + " [cell " + cell + ", net " +
                             net + "]"),
          cell_(std::move(cell)), net_(std::move(net))
    {}

    /** Label of the offending cell instance. */
    const std::string &cell() const { return cell_; }

    /** Label of the affected net. */
    const std::string &net() const { return net_; }

  private:
    std::string cell_;
    std::string net_;
};

/**
 * Manufacturing-defect kinds injectable at a gate instance
 * (analysis/fault.hh draws these from the Section 3.1 device-yield
 * parameter).
 */
enum class FaultKind : std::uint8_t
{
    None,     ///< no defect (overlay slot unused)
    StuckAt0, ///< output permanently low
    StuckAt1, ///< output permanently high
    /**
     * Input-output pin bridge: the output trace is shorted to one of
     * the cell's own input traces. Resistor-load printed logic makes
     * such shorts dominant-low, so the output becomes
     * out AND value(bridged input) (wired-AND bridging model).
     */
    BridgeInput,
};

/** One injected defect: a gate instance and how it fails. */
struct InjectedFault
{
    GateId gate = invalidGate;
    FaultKind kind = FaultKind::None;
    /** Net the output is shorted to (BridgeInput only). */
    NetId bridge = invalidNet;
};

/**
 * Gate-level simulator bound to one (immutable) Netlist.
 *
 * Semantics:
 *   - DFFX1: Q <= D on step().
 *   - DFFNRX1: Q <= RN ? D : 0 on step(); additionally Q is forced
 *     low whenever RN is 0 during evaluate() (asynchronous clear).
 *   - LATCHX1 (SR): on step(), Q <= S ? 1 : (R ? 0 : Q). S and R
 *     both high throws SimulationError (illegal input).
 *   - TSBUFX1 buses: at most one enabled driver per evaluation
 *     (multiple enabled drivers with equal values are tolerated);
 *     conflicting enabled drivers throw SimulationError; a bus with
 *     no enabled driver keeps its previous value.
 *
 * Fault overlay: setFaults() marks gate instances as defective
 * without touching the netlist; evaluate()/step() then force the
 * defective outputs. faultActivations() counts how often a forced
 * value differed from the fault-free one, which is what separates
 * "fully benign" from "workload-masked" defects in the functional-
 * yield Monte Carlo.
 */
class GateSimulator
{
  public:
    /**
     * Validates and levelizes `netlist`, which must outlive the
     * simulator. A sealed netlist (Netlist::seal()) costs neither:
     * every simulator built on it copies its stored schedule.
     */
    explicit GateSimulator(const Netlist &netlist);

    /**
     * Flushes the accumulated cycle/settle/toggle counts into the
     * process metrics registry ("sim.scalar.*"); reset() does the
     * same before zeroing, so per-gate hot loops never touch an
     * atomic.
     */
    ~GateSimulator();

    /** Clear all sequential state and activity counters. */
    void reset();

    /** Drive a primary input net. */
    void setInput(NetId net, bool value);

    /** Drive a primary input by name. */
    void setInput(const std::string &name, bool value);

    /** Drive a bus of primary inputs with an integer (LSB first). */
    void setBus(const Bus &bus, std::uint64_t value);

    /** Settle the combinational logic. */
    void evaluate();

    /** Clock edge: update flops/latches from settled values. */
    void step();

    /** Convenience: evaluate() then step() then evaluate(). */
    void cycle();

    /** Settled value of a net. */
    bool value(NetId net) const { return values_[net]; }

    /** Read a bus as an integer (LSB first). */
    std::uint64_t readBus(const Bus &bus) const;

    /** Value of a named primary output. */
    bool output(const std::string &name) const;

    // ------------------------------------------------------------
    // Fault overlay
    // ------------------------------------------------------------

    /**
     * Overlay a defect map: each listed gate's output is forced
     * according to its FaultKind from now on. Replaces any earlier
     * overlay and zeroes faultActivations(). Sequential state and
     * activity counters are untouched; call reset() to start a
     * clean faulted trial.
     */
    void setFaults(const std::vector<InjectedFault> &faults);

    /** Drop the fault overlay (fault-free simulation again). */
    void clearFaults();

    /**
     * Times a forced (faulty) output differed from the value the
     * fault-free cell would have produced, since setFaults().
     * Zero after a run means the defect never mattered ("fully
     * benign"); nonzero with correct results means the workload
     * masked it.
     */
    std::uint64_t faultActivations() const { return activations_; }

    // ------------------------------------------------------------
    // Activity accounting
    // ------------------------------------------------------------

    /** Output toggles observed for one gate since reset(). */
    std::uint64_t toggles(GateId gate) const { return toggles_[gate]; }

    /** Total output toggles across all gates since reset(). */
    std::uint64_t totalToggles() const;

    /** Number of step() calls since reset(). */
    std::uint64_t cycles() const { return cycles_; }

    /**
     * Combinational settle walks since reset(): one per evaluate(),
     * plus one for each second settle forced by an asynchronous
     * clear. The fault MC uses the registry mirror of this to report
     * simulation effort per trial.
     */
    std::uint64_t settles() const { return settles_; }

    /**
     * Average switching activity: output toggles per gate per cycle.
     * Comparable to the Design Compiler activity factor the paper
     * quotes (0.88).
     */
    double activityFactor() const;

  private:
    void evaluateGate(GateId gi);

    /** Apply the fault overlay to a fault-free output value. */
    std::uint8_t faultValue(GateId gi, std::uint8_t out);

    /** Add the counts since the last reset() to "sim.scalar.*". */
    void flushMetrics() const;

    const Netlist &netlist_;
    std::vector<GateId> order_;        ///< levelized comb. gates
    std::vector<GateId> seqGates_;     ///< sequential cell instances
    bool hasAsyncClear_ = false;       ///< any DFFNRX1 instance
    bool hasTristate_ = false;         ///< any TSBUFX1 instance
    std::vector<std::uint8_t> values_; ///< per-net settled value
    std::vector<std::uint8_t> seqState_;   ///< per-seq-gate Q
    std::vector<std::uint8_t> busResolved_;///< per-net: TSBUF drove it
    std::vector<std::uint64_t> toggles_;   ///< per-gate output toggles
    std::uint64_t cycles_ = 0;
    std::uint64_t settles_ = 0;

    bool anyFaults_ = false;             ///< overlay non-empty
    std::vector<FaultKind> faultKind_;   ///< per-gate overlay (lazy)
    std::vector<NetId> faultBridge_;     ///< per-gate bridge net
    std::vector<GateId> faultedGates_;   ///< for cheap clearFaults()
    std::uint64_t activations_ = 0;
};

} // namespace printed

#endif // PRINTED_SIM_SIMULATOR_HH
