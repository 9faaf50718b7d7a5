/**
 * @file
 * Gate-level co-simulation harness.
 *
 * Connects a generated TP-ISA core netlist to behavioral Harvard
 * memories (instruction ROM image + data RAM array) and runs whole
 * programs through the GateSimulator. Used to validate that the
 * synthesized cores implement TP-ISA exactly: tests execute each
 * workload on both the instruction-set simulator and the gate-level
 * core and require identical memory results.
 *
 * Per-cycle protocol (mirrors the paper's single-cycle memory-memory
 * datapath): the harness presents instr = rom[pc], lets the core
 * settle, presents rdata1/2 = ram[addr1/2], settles again, then
 * commits the write (wen -> ram[waddr] = wdata) and clocks.
 */

#ifndef PRINTED_CORE_COSIM_HH
#define PRINTED_CORE_COSIM_HH

#include <cstdint>
#include <vector>

#include "core/generator.hh"
#include "isa/program.hh"
#include "sim/simulator.hh"

namespace printed
{

/** Gate-level execution harness for one core + one program. */
class CoreCosim
{
  public:
    /**
     * @param netlist a core built by buildCore(config)
     * @param config the same configuration
     * @param program program to load into the instruction ROM
     * @param dmem_words data-RAM size in words
     */
    CoreCosim(const Netlist &netlist, const CoreConfig &config,
              const Program &program, std::size_t dmem_words);

    /** Apply reset for one cycle and zero the data RAM. */
    void reset();

    /** Write a data-RAM word. */
    void setMem(std::size_t addr, std::uint64_t value);

    /**
     * Map a memory-mapped input stream (see
     * TpIsaMachine::setStreamPort). Supported for single-cycle
     * cores: the harness decodes the fetched instruction to consume
     * stream values only on architectural operand reads, keeping
     * gate-level execution in lockstep with the ISS.
     */
    void setStreamPort(std::size_t addr,
                       std::vector<std::uint64_t> values);

    /** Read a data-RAM word. */
    std::uint64_t mem(std::size_t addr) const;

    /** Current PC (gate-level). */
    unsigned pc() const;

    /** Run one clock cycle. */
    void cycle();

    /**
     * Run until the PC spins on a self-branch, falls off the end of
     * the program, or max_cycles elapse.
     * @return number of cycles executed
     */
    std::uint64_t run(std::uint64_t max_cycles = 2'000'000);

    /** True when the program reached a halt condition. */
    bool halted() const { return halted_; }

    /** Measured switching-activity factor of the core netlist. */
    double activityFactor() const { return sim_.activityFactor(); }

    /**
     * The underlying gate-level simulator. Exposed so fault
     * injection (analysis/fault.hh) can overlay defect maps on the
     * core between trials; call reset() after changing the overlay.
     */
    GateSimulator &simulator() { return sim_; }

  private:
    const CoreConfig config_;
    CorePorts ports_;
    GateSimulator sim_;
    std::vector<std::uint32_t> rom_;
    std::vector<std::uint64_t> ram_;
    bool halted_ = false;
    unsigned samePcStreak_ = 0;
    unsigned spinAnchor_ = ~0u; ///< candidate spin branch address
    unsigned drain_ = 0; ///< pipeline-drain cycles past the end

    long streamAddr_ = -1;
    std::vector<std::uint64_t> streamValues_;
    std::size_t streamPos_ = 0;
};

} // namespace printed

#endif // PRINTED_CORE_COSIM_HH
