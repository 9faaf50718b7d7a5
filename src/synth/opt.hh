/**
 * @file
 * Netlist optimization passes.
 *
 * A light-weight stand-in for the logic optimization a commercial
 * synthesis tool performs after elaboration: constant propagation,
 * double-inverter removal, structural common-subexpression sharing,
 * and dead-gate sweeping. The generators in blocks.hh are written
 * for clarity and rely on these passes to clean up, e.g., adders fed
 * with constant operands (a PC incrementer elaborated from a generic
 * adder) or decoders with shared product terms.
 */

#ifndef PRINTED_SYNTH_OPT_HH
#define PRINTED_SYNTH_OPT_HH

#include <cstddef>

#include "netlist/netlist.hh"

namespace printed::synth
{

/** Statistics of one optimize() run. */
struct OptStats
{
    std::size_t gatesBefore = 0;
    std::size_t gatesAfter = 0;
    std::size_t constFolded = 0;   ///< gates simplified by constants
    std::size_t invPairs = 0;      ///< INV(INV(x)) collapsed
    std::size_t shared = 0;        ///< structurally duplicate gates
    std::size_t deadRemoved = 0;   ///< unreachable gates swept
    std::size_t netsRemoved = 0;   ///< orphaned nets compacted away
    unsigned iterations = 0;       ///< fixpoint iterations
};

/**
 * Optimize a netlist in place until no pass makes progress.
 * The netlist must validate() before; it leaves sealed
 * (Netlist::seal()), validated once with its schedule stored.
 */
OptStats optimize(Netlist &nl);

} // namespace printed::synth

#endif // PRINTED_SYNTH_OPT_HH
