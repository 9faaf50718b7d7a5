/**
 * @file
 * Redundancy-hardening passes for defect tolerance.
 *
 * Section 3.1's device yields (90-99% measured) make every printed
 * gate a liability; this module spends area to buy back functional
 * yield. Two strategies over the 11-cell library:
 *
 *   - TmrFull: triple modular redundancy of the whole netlist.
 *     Every gate is triplicated; majority voters (5 cells: 4x NAND2
 *     + 1x AND2, 6 printed devices) are inserted at each flop
 *     boundary and at every primary output, so a single defect in
 *     any one copy is corrected each cycle. Voters and primary
 *     input traces remain single points of failure - the honest TMR
 *     cost model.
 *
 *   - TmrSequential: selective hardening of the sequential cells
 *     only. Flops are the most defect-prone instances in the stage
 *     model (8-10 printed devices vs 1-3 for combinational cells),
 *     so triplicating just the state plus a voter per flop is the
 *     cost-effective point: ~3x the flop area instead of >3x the
 *     whole core.
 *
 * Hardened netlists must NOT be re-run through synth::optimize():
 * structural common-subexpression sharing would collapse the
 * redundant copies right back into one.
 */

#ifndef PRINTED_SYNTH_HARDEN_HH
#define PRINTED_SYNTH_HARDEN_HH

#include <cstddef>

#include "netlist/netlist.hh"

namespace printed::synth
{

/** Which redundancy scheme harden() applies. */
enum class HardenStrategy
{
    TmrFull,       ///< triplicate everything, vote at state/outputs
    TmrSequential, ///< triplicate sequential cells only
};

/** Cost accounting of one harden() run. */
struct HardenReport
{
    std::size_t gatesBefore = 0;
    std::size_t gatesAfter = 0;
    std::size_t gatesTriplicated = 0; ///< original gates triplicated
    std::size_t votersInserted = 0;   ///< majority voters added
};

/** Display name of a strategy ("TMR-full" / "TMR-seq"). */
const char *hardenStrategyName(HardenStrategy strategy);

/**
 * Build a majority-of-three voter from library cells:
 * maj(a,b,c) = NAND(AND(NAND(a,b), NAND(a,c)), NAND(b,c)).
 * @return the voted output net (5 gates, 6 printed devices)
 */
NetId majority3(Netlist &nl, NetId a, NetId b, NetId c);

/**
 * Return a hardened copy of `src` (same ports, same function in the
 * absence of defects). `src` must validate(); the result is sealed
 * (Netlist::seal()).
 *
 * For TmrFull the gate order of the result is: all triplicated
 * combinational gates (three consecutive copies per original gate,
 * in levelized order), then per sequential cell its three copies
 * followed by its voter, then the primary-output voters.
 */
Netlist harden(const Netlist &src, HardenStrategy strategy,
               HardenReport *report = nullptr);

} // namespace printed::synth

#endif // PRINTED_SYNTH_HARDEN_HH
