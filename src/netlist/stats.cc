#include "stats.hh"

#include <algorithm>

namespace printed
{

NetlistStats
computeStats(const Netlist &netlist)
{
    NetlistStats stats;
    stats.histogram = netlist.cellHistogram();
    stats.totalGates = netlist.gateCount();
    stats.seqGates = netlist.flopCount();
    stats.combGates = stats.totalGates - stats.seqGates;
    stats.inputCount = netlist.inputs().size();
    stats.outputCount = netlist.outputs().size();

    // Logic depth: longest chain of combinational gates, in
    // levelized order.
    std::vector<std::size_t> net_depth(netlist.netCount(), 0);
    std::size_t max_depth = 0;
    for (GateId gi : netlist.levelize()) {
        const Gate &g = netlist.gate(gi);
        std::size_t d = net_depth[g.in0];
        if (g.in1 != invalidNet)
            d = std::max(d, net_depth[g.in1]);
        ++d;
        net_depth[g.out] = std::max(net_depth[g.out], d);
        max_depth = std::max(max_depth, d);
    }
    stats.logicDepth = max_depth;
    return stats;
}

void
printStats(std::ostream &os, const std::string &label,
           const NetlistStats &stats)
{
    os << label << ": " << stats.totalGates << " cells ("
       << stats.combGates << " comb, " << stats.seqGates
       << " seq), depth " << stats.logicDepth << ", "
       << stats.inputCount << " in / " << stats.outputCount
       << " out\n";
    for (std::size_t i = 0; i < numCellKinds; ++i) {
        if (stats.histogram[i] == 0)
            continue;
        os << "    " << cellName(static_cast<CellKind>(i)) << ": "
           << stats.histogram[i] << "\n";
    }
}

} // namespace printed
