#include "timing.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"

namespace printed
{

namespace
{

struct Arrival
{
    double rise = 0;
    double fall = 0;

    double worst() const { return std::max(rise, fall); }
};

} // anonymous namespace

TimingReport
analyzeTiming(const Netlist &netlist, const CellLibrary &lib)
{
    std::vector<Arrival> arrival(netlist.netCount());

    // Launch points: sequential outputs start at clk-to-q.
    for (GateId gi = 0; gi < netlist.gateCount(); ++gi) {
        const Gate &g = netlist.gate(gi);
        if (!cellIsSequential(g.kind))
            continue;
        const CellSpec &spec = lib.cell(g.kind);
        arrival[g.out].rise =
            std::max(arrival[g.out].rise, spec.rise_us);
        arrival[g.out].fall =
            std::max(arrival[g.out].fall, spec.fall_us);
    }

    for (GateId gi : netlist.levelize()) {
        const Gate &g = netlist.gate(gi);
        const CellSpec &spec = lib.cell(g.kind);

        double in_rise = arrival[g.in0].rise;
        double in_fall = arrival[g.in0].fall;
        if (g.in1 != invalidNet) {
            in_rise = std::max(in_rise, arrival[g.in1].rise);
            in_fall = std::max(in_fall, arrival[g.in1].fall);
        }

        double out_rise, out_fall;
        if (cellIsNonMonotone(g.kind) ||
            g.kind == CellKind::TSBUFX1) {
            // Either input transition can cause either output
            // transition (TSBUF: the enable pin is non-monotone).
            const double in_worst = std::max(in_rise, in_fall);
            out_rise = in_worst + spec.rise_us;
            out_fall = in_worst + spec.fall_us;
        } else if (cellIsInverting(g.kind)) {
            out_rise = in_fall + spec.rise_us;
            out_fall = in_rise + spec.fall_us;
        } else {
            out_rise = in_rise + spec.rise_us;
            out_fall = in_fall + spec.fall_us;
        }

        // Multi-driver buses accumulate the worst arrival.
        arrival[g.out].rise = std::max(arrival[g.out].rise, out_rise);
        arrival[g.out].fall = std::max(arrival[g.out].fall, out_fall);
    }

    TimingReport report;
    for (const auto &p : netlist.outputs())
        report.outputDelayUs =
            std::max(report.outputDelayUs, arrival[p.net].worst());

    bool has_flops = false;
    for (GateId gi = 0; gi < netlist.gateCount(); ++gi) {
        const Gate &g = netlist.gate(gi);
        if (!cellIsSequential(g.kind))
            continue;
        has_flops = true;
        double path = arrival[g.in0].worst();
        if (g.in1 != invalidNet)
            path = std::max(path, arrival[g.in1].worst());
        report.regPathUs = std::max(report.regPathUs, path);
    }

    report.criticalPathUs =
        std::max(report.outputDelayUs, report.regPathUs);

    if (has_flops) {
        report.periodUs =
            std::max(report.regPathUs, lib.flopPeriodFloorUs());
    } else {
        report.periodUs = report.criticalPathUs;
    }
    fatalIf(report.periodUs <= 0,
            "analyzeTiming: empty netlist has no period");
    report.fmaxHz = 1.0 / usToSeconds(report.periodUs);
    return report;
}

} // namespace printed
