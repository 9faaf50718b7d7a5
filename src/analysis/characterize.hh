/**
 * @file
 * One-stop characterization: the area / power / delay triple the
 * paper reports for every design point (Tables 4 and 5, Figures 7
 * and 8).
 */

#ifndef PRINTED_ANALYSIS_CHARACTERIZE_HH
#define PRINTED_ANALYSIS_CHARACTERIZE_HH

#include <string>

#include "analysis/area.hh"
#include "analysis/power.hh"
#include "analysis/timing.hh"
#include "netlist/netlist.hh"
#include "netlist/stats.hh"
#include "tech/library.hh"

namespace printed
{

/**
 * Full characterization of one netlist in one technology: structural
 * stats, area, timing, and power at fmax (the operating point the
 * paper's tables use).
 */
struct Characterization
{
    std::string label;
    TechKind tech = TechKind::EGFET;
    NetlistStats stats;
    AreaReport area;
    TimingReport timing;
    PowerReport powerAtFmax;

    /** Gate count (cell instances), as in Table 4. */
    std::size_t gateCount() const { return stats.totalGates; }

    /** Area in the paper's cm^2 convention. */
    double areaCm2() const { return area.totalCm2(); }

    /** Maximum clock frequency [Hz]. */
    double fmaxHz() const { return timing.fmaxHz; }

    /** Total power at fmax [mW]. */
    double powerMw() const { return powerAtFmax.total_mW; }
};

/**
 * Characterize a netlist: validates, collects structural stats, and
 * runs area / timing / power analysis. A sealed netlist (whatever
 * synth::optimize() or synth::harden() returned) is neither
 * validated nor levelized again: stats and timing read its stored
 * schedule. An unsealed one is validated here and levelized by
 * computeStats() and analyzeTiming() each.
 *
 * @param netlist the gate-level design
 * @param lib technology library (EGFET or CNT-TFT)
 * @param activity switching-activity factor (default: the paper's
 *        reported average of 0.88)
 */
Characterization characterize(const Netlist &netlist,
                              const CellLibrary &lib,
                              double activity = paperActivityFactor);

} // namespace printed

#endif // PRINTED_ANALYSIS_CHARACTERIZE_HH
