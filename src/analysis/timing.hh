/**
 * @file
 * Static timing analysis over printed standard-cell netlists.
 *
 * Propagates rise/fall arrival times through the levelized
 * combinational network using the Table 2 per-cell rise/fall delays.
 * Inverting cells (INV/NAND/NOR) couple output-rise to input-fall and
 * vice versa; non-monotone cells (XOR/XNOR, and TSBUF conservatively)
 * couple both directions.
 *
 * Sequential sources launch at the flop's clk-to-q delay; paths are
 * timed to sequential D/R inputs and to primary outputs. Table 2
 * carries no setup times, so setup is taken as zero (documented in
 * DESIGN.md); fmax = 1 / max register-to-register path.
 */

#ifndef PRINTED_ANALYSIS_TIMING_HH
#define PRINTED_ANALYSIS_TIMING_HH

#include "netlist/netlist.hh"
#include "tech/library.hh"

namespace printed
{

/** Result of one static timing pass. */
struct TimingReport
{
    /** Longest input/flop -> primary-output path [us]. */
    double outputDelayUs = 0;

    /** Longest path ending at a sequential-cell input [us]. */
    double regPathUs = 0;

    /** Overall critical path: max of the two above [us]. */
    double criticalPathUs = 0;

    /**
     * Minimum clock period [us]: the register-to-register critical
     * path, floored at the flop clk-to-q delay. Purely combinational
     * netlists use the critical combinational delay instead.
     */
    double periodUs = 0;

    /** Maximum clock frequency 1/periodUs [Hz]. */
    double fmaxHz = 0;
};

/**
 * Run static timing analysis of a netlist in a technology, over its
 * levelize() schedule (stored, when the netlist is sealed).
 */
TimingReport analyzeTiming(const Netlist &netlist,
                           const CellLibrary &lib);

} // namespace printed

#endif // PRINTED_ANALYSIS_TIMING_HH
