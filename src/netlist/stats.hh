/**
 * @file
 * Summary statistics for a netlist: per-cell histogram with
 * sequential/combinational split, logic depth, and pretty-printing.
 */

#ifndef PRINTED_NETLIST_STATS_HH
#define PRINTED_NETLIST_STATS_HH

#include <array>
#include <ostream>
#include <string>

#include "netlist/netlist.hh"

namespace printed
{

/** Aggregate structural statistics of a Netlist. */
struct NetlistStats
{
    std::array<std::size_t, numCellKinds> histogram{};
    std::size_t totalGates = 0;        ///< all cell instances
    std::size_t combGates = 0;         ///< combinational instances
    std::size_t seqGates = 0;          ///< LATCH/DFF/DFFNR instances
    std::size_t logicDepth = 0;        ///< longest comb. gate chain
    std::size_t inputCount = 0;
    std::size_t outputCount = 0;
};

/**
 * Compute structural statistics over the netlist's levelize()
 * schedule and cellHistogram() (stored, when it is sealed).
 */
NetlistStats computeStats(const Netlist &netlist);

/** Print a one-block human-readable summary. */
void printStats(std::ostream &os, const std::string &label,
                const NetlistStats &stats);

} // namespace printed

#endif // PRINTED_NETLIST_STATS_HH
