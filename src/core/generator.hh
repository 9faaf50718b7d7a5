/**
 * @file
 * Gate-level TP-ISA core generator.
 *
 * Elaborates a CoreConfig into an actual netlist of printed
 * standard cells: program counter, instruction decode, BAR file and
 * address units, the ALU (shared add/sub, logic, single-bit
 * rotators), flags, write-back, branch resolution, and - for multi-
 * stage configurations - pipeline registers with flush/stall
 * control. This is the artifact behind Figure 7: area, power, and
 * fmax of every pP_D_B point are measured on the generated netlist
 * by the characterization core, exactly as the paper measures its
 * Design Compiler netlists.
 *
 * Core interface (all memories are external, Harvard style):
 *
 *   inputs:  instr[IW]    current instruction word (from the ROM)
 *            rdata1[D]    data-memory word at addr1
 *            rdata2[D]    data-memory word at addr2
 *            rstn         active-low asynchronous reset
 *   outputs: pc[PB]       instruction-fetch address
 *            addr1[AB]    first-operand (read/write) address
 *            addr2[AB]    second-operand address
 *            waddr[AB]    write-back address (== addr1 for p1/p2)
 *            wdata[D]     write-back data
 *            wen          write enable
 */

#ifndef PRINTED_CORE_GENERATOR_HH
#define PRINTED_CORE_GENERATOR_HH

#include <memory>

#include "core/config.hh"
#include "netlist/netlist.hh"

namespace printed
{

/** Named handles to the core's ports, for harnesses and tests. */
struct CorePorts
{
    Bus instr;
    Bus rdata1;
    Bus rdata2;
    NetId rstn = invalidNet;
    Bus pc;
    Bus addr1;
    Bus addr2;
    Bus waddr;
    Bus wdata;
    NetId wen = invalidNet;
};

/**
 * Elaborate a core configuration into an *unoptimized* netlist: the
 * first half of buildCore() below, which perfbench times apart from
 * synth::optimize. Every other consumer wants buildCore().
 */
Netlist elaborateCore(const CoreConfig &config);

/**
 * Build the gate-level netlist for a core configuration.
 * The netlist is optimized (synth::optimize) and validated.
 */
Netlist buildCore(const CoreConfig &config);

/** Look up the port nets of a generated core by name. */
CorePorts corePorts(const Netlist &netlist, const CoreConfig &config);

} // namespace printed

#endif // PRINTED_CORE_GENERATOR_HH
