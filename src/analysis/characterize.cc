#include "characterize.hh"

#include "common/metrics.hh"
#include "common/trace.hh"

namespace printed
{

Characterization
characterize(const Netlist &netlist, const CellLibrary &lib,
             double activity)
{
    trace::Span span("analysis.characterize", netlist.name());
    metrics::counter("analysis.characterizations").add(1);
    netlist.validate();

    Characterization ch;
    ch.label = netlist.name();
    ch.tech = lib.tech();
    ch.stats = computeStats(netlist);
    ch.area = analyzeArea(netlist, lib);
    ch.timing = analyzeTiming(netlist, lib);
    ch.powerAtFmax = analyzePower(netlist, lib, ch.timing.fmaxHz,
                                  activity);
    return ch;
}

} // namespace printed
