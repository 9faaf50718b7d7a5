/**
 * @file
 * 64-lane gate-level co-simulation harness.
 *
 * The batch counterpart of CoreCosim (cosim.hh): one
 * BatchGateSimulator carries 64 independent trials of the same core
 * + program, each lane with its own fault overlay, data RAM, PC
 * trajectory, and halt state. The per-cycle protocol is identical
 * to the scalar harness — fetch, settle, present RAM reads, settle,
 * commit the write, clock — but every per-lane decision (fetch
 * address, RAM read data, write commit, halt detection) is taken
 * per lane, so faulted lanes can diverge arbitrarily while the
 * expensive gate evaluation stays one bitwise pass for all 64.
 *
 * Lane-exact semantics vs the scalar harness:
 *   - a lane that halts is retired from simulator observation and
 *     its RAM is frozen, exactly as the scalar harness stops
 *     cycling at halt;
 *   - a lane whose core writes outside the data RAM is killed
 *     (KillReason::Harness) — the scalar harness throws FatalError;
 *   - illegal electrical states kill lanes inside the simulator
 *     (KillReason::BusConflict / LatchSetReset) where the scalar
 *     engine throws SimulationError;
 *   - a lane still running when the cycle budget expires is a lost
 *     halt, reported by run() returning with the lane neither
 *     halted nor killed;
 *   - a lane that run() finds back in an earlier state is caught in
 *     a loop: it is retired (loopedLanes()), neither halted nor
 *     killed, exactly as if it had run out the budget.
 */

#ifndef PRINTED_CORE_BATCH_COSIM_HH
#define PRINTED_CORE_BATCH_COSIM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/generator.hh"
#include "isa/program.hh"
#include "sim/batch_simulator.hh"

namespace printed
{

/** 64-lane gate-level execution harness for one core + program. */
class BatchCoreCosim
{
  public:
    /** Trials per batch (same as BatchGateSimulator::laneCount). */
    static constexpr unsigned laneCount =
        BatchGateSimulator::laneCount;

    /**
     * @param netlist a core built by buildCore(config)
     * @param config the same configuration
     * @param program program to load into the instruction ROM
     * @param dmem_words data-RAM size in words (per lane)
     */
    BatchCoreCosim(const Netlist &netlist, const CoreConfig &config,
                   const Program &program, std::size_t dmem_words);

    /**
     * Apply reset for one cycle and zero every lane's data RAM; all
     * 64 lanes return to observation (re-retire stale lanes after
     * this if needed).
     */
    void reset();

    /** Write a data-RAM word in every lane. */
    void setMemAll(std::size_t addr, std::uint64_t value);

    /** Read one lane's data-RAM word. */
    std::uint64_t mem(unsigned lane, std::size_t addr) const;

    /**
     * Map a memory-mapped input stream (single-cycle cores only;
     * see CoreCosim::setStreamPort). The stream values are shared,
     * the read position is per lane.
     */
    void setStreamPort(std::size_t addr,
                       std::vector<std::uint64_t> values);

    /** Current PC of one lane (gate-level). */
    unsigned pc(unsigned lane) const;

    /** Run one clock cycle for every live, unhalted lane. */
    void cycle();

    /**
     * Run until every observed lane has halted, been killed or been
     * caught in a loop, or max_cycles elapse. Unlike the scalar
     * harness this does not throw on a lost halt: lanes still
     * observed and unhalted afterwards exceeded the budget (fatal
     * for MC classification).
     *
     * Loop retirement is Brent's cycle detection per lane: the run
     * saves the block's state at its start and after cycles 1, 2, 4,
     * 8, …, and retires every active lane whose simulator words,
     * data RAM and harness state all equal the saved copy. A lane's
     * next cycle depends on nothing else (its fault overlay, the ROM
     * and the stream are fixed), so such a lane repeats that period
     * forever; any halt or kill in it would already have happened.
     * @return number of cycles executed
     */
    std::uint64_t run(std::uint64_t max_cycles = 2'000'000);

    /** Lanes whose program reached a halt condition. */
    LaneMask haltedLanes() const { return halted_; }

    /** Lanes run() retired as caught in a loop (since reset()). */
    LaneMask loopedLanes() const { return looped_; }

    /** Lanes killed by the simulator or the harness. */
    LaneMask
    killedLanes() const
    {
        return sim_.killedLanes();
    }

    /**
     * The underlying batch simulator: overlay per-lane defect maps
     * (setLaneFaults), retire known-dead lanes, read activations.
     * Call reset() after changing the overlay.
     */
    BatchGateSimulator &simulator() { return sim_; }

  private:
    /** Lanes that still need cycling: observed and not halted. */
    LaneMask activeLanes() const
    {
        return sim_.observedLanes() & ~halted_;
    }

    void haltLane(unsigned lane);

    /** Save the whole block's state as the loop-detection snapshot. */
    void saveSnapshot();

    /** Active lanes whose whole state equals the snapshot. */
    LaneMask lanesAtSnapshot() const;

    /** Drive `bus` per lane from vals[], for lanes in mask. */
    void driveBus(const Bus &bus,
                  const std::array<std::uint64_t, laneCount> &vals,
                  LaneMask lanes);

    const CoreConfig config_;
    CorePorts ports_;
    BatchGateSimulator sim_;
    std::vector<std::uint32_t> rom_;
    std::vector<std::uint64_t> ram_; ///< lane-major [lane][word]
    std::size_t ramWords_ = 0;
    std::uint32_t drainInstr_ = 0; ///< harmless never-taken branch

    /** Per-lane harness state: what cycle() reads besides the
     *  simulator and the data RAM. */
    struct LaneHarness
    {
        unsigned samePcStreak = 0;
        unsigned spinAnchor = ~0u;
        unsigned drain = 0;
        std::size_t streamPos = 0;

        bool operator==(const LaneHarness &) const = default;
    };

    /** The block's state at one cycle, for loop detection. */
    struct Snapshot
    {
        std::vector<LaneMask> words; ///< BatchGateSimulator::saveState
        std::vector<std::uint64_t> ram;
        std::array<LaneHarness, laneCount> harness{};
    };

    LaneMask halted_ = 0;
    LaneMask looped_ = 0;
    std::array<LaneHarness, laneCount> harness_{};
    Snapshot snapshot_;

    long streamAddr_ = -1;
    std::vector<std::uint64_t> streamValues_;
};

} // namespace printed

#endif // PRINTED_CORE_BATCH_COSIM_HH
