#include "yield.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace printed
{

std::size_t
cellDeviceCount(CellKind kind)
{
    // One driving transistor per resistor-loaded stage; the stage
    // counts mirror tech/library.cc and are identical across
    // technologies.
    switch (kind) {
      case CellKind::INVX1:
      case CellKind::NAND2X1:
      case CellKind::NOR2X1:
        return 1;
      case CellKind::AND2X1:
      case CellKind::OR2X1:
      case CellKind::TSBUFX1:
        return 2;
      case CellKind::XOR2X1:
      case CellKind::XNOR2X1:
        return 3;
      case CellKind::LATCHX1:
        return 4;
      case CellKind::DFFX1:
        return 8;
      case CellKind::DFFNRX1:
        return 10;
      default:
        panic("cellDeviceCount: unknown cell");
    }
}

std::size_t
deviceCount(const Netlist &netlist)
{
    std::size_t devices = 0;
    for (GateId gi = 0; gi < netlist.gateCount(); ++gi)
        devices += cellDeviceCount(netlist.gateKind(gi));
    return devices;
}

YieldReport
yieldForDevices(std::size_t devices, const YieldModel &model)
{
    fatalIf(model.deviceYield < 0 || model.deviceYield > 1,
            "yieldForDevices: device yield must be in [0, 1]");
    YieldReport report;
    report.devices = devices;
    // pow(0, 0) == 1: a zero-device design always "works".
    report.yield = devices == 0
                       ? 1.0
                       : std::pow(model.deviceYield,
                                  double(devices) *
                                      model.devicesPerStage);
    report.printsPerGood =
        report.yield > 0 ? 1.0 / report.yield
                         : std::numeric_limits<double>::infinity();
    return report;
}

YieldReport
analyzeYield(const Netlist &netlist, const YieldModel &model)
{
    return yieldForDevices(deviceCount(netlist), model);
}

ProportionInterval
wilsonInterval(std::size_t successes, std::size_t trials)
{
    fatalIf(trials == 0 || successes > trials,
            "wilsonInterval: need 0 <= successes <= trials, trials > 0");
    constexpr double z = 1.96; // two-sided 95 % normal quantile
    const double n = double(trials);
    const double p = double(successes) / n;
    const double z2n = z * z / n;
    const double centre = (p + z2n / 2) / (1 + z2n);
    const double half =
        z / (1 + z2n) * std::sqrt(p * (1 - p) / n + z2n / (4 * n));
    return {std::max(0.0, centre - half), std::min(1.0, centre + half)};
}

double
binomialTestP(std::size_t successes, std::size_t trials, double p)
{
    fatalIf(successes > trials, "binomialTestP: successes > trials");
    fatalIf(p < 0 || p > 1, "binomialTestP: p must be in [0, 1]");
    if (p == 0)
        return successes == 0 ? 1.0 : 0.0;
    if (p == 1)
        return successes == trials ? 1.0 : 0.0;
    const double n = double(trials);
    const double logN = std::lgamma(n + 1);
    const double logP = std::log(p);
    const double logQ = std::log1p(-p);
    const auto logPmf = [&](std::size_t k) {
        const double kd = double(k);
        return logN - std::lgamma(kd + 1) - std::lgamma(n - kd + 1) +
               kd * logP + (n - kd) * logQ;
    };
    // Outcomes within a relative 1e-7 of the observed likelihood
    // count as equally likely, so rounding cannot drop the mirror
    // outcome of a symmetric distribution.
    const double observed = logPmf(successes) + std::log1p(1e-7);
    double sum = 0;
    for (std::size_t k = 0; k <= trials; ++k) {
        const double lp = logPmf(k);
        if (lp <= observed)
            sum += std::exp(lp);
    }
    return std::min(1.0, sum);
}

} // namespace printed
