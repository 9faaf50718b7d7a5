/**
 * @file
 * Manufacturing-yield analysis for printed circuits.
 *
 * Section 3.1 of the paper reports measured EGFET device yields of
 * 90-99%. At those rates circuit yield decays geometrically in the
 * device count, which is a first-order argument for the paper's
 * low-gate-count cores: a 450-cell TP-ISA core is printable at
 * useful yields where a 12,000-cell openMSP430 is essentially never
 * defect-free. This module computes per-design yield and the
 * expected number of prints per working unit.
 */

#ifndef PRINTED_ANALYSIS_YIELD_HH
#define PRINTED_ANALYSIS_YIELD_HH

#include <cstddef>

#include "netlist/netlist.hh"

namespace printed
{

/** Yield model parameters. */
struct YieldModel
{
    /**
     * Probability that one printed transistor works, in [0, 1].
     * The paper's measured EGFET device yield is 90-99%; the
     * default sits at the optimistic end, which is what makes
     * microprocessors printable at all.
     */
    double deviceYield = 0.99;

    /**
     * Transistors per cell stage (transistor-resistor logic uses
     * one driving transistor per stage; the pull-up resistor's
     * yield is folded into deviceYield).
     */
    double devicesPerStage = 1.0;
};

/** Yield results for one design. */
struct YieldReport
{
    std::size_t devices = 0;  ///< modeled printed-device count
    double yield = 0;         ///< probability a print works
    double printsPerGood = 0; ///< expected prints per working unit
};

/**
 * Printed-device count of one cell instance under the stage model
 * (one driving transistor per resistor-loaded stage; mirrors
 * tech/library.cc). Shared by the analytic yield model and the
 * fault-injection defect draw (analysis/fault.hh), so a cell's
 * defect probability and its analytic yield contribution agree.
 */
std::size_t cellDeviceCount(CellKind kind);

/** Device count of a netlist under the stage model. */
std::size_t deviceCount(const Netlist &netlist);

/** Yield of a netlist. */
YieldReport analyzeYield(const Netlist &netlist,
                         const YieldModel &model = {});

/** Yield for a raw device count (e.g. legacy-core gate models). */
YieldReport yieldForDevices(std::size_t devices,
                            const YieldModel &model = {});

/** A two-sided confidence interval of a proportion. */
struct ProportionInterval
{
    double lo = 0;
    double hi = 1;
};

/**
 * Wilson score 95 % interval of `successes` out of `trials`
 * Bernoulli draws. Unlike the normal approximation it stays inside
 * [0, 1] and is not empty at 0 or `trials` successes, where
 * Monte-Carlo yields often sit.
 */
ProportionInterval wilsonInterval(std::size_t successes,
                                  std::size_t trials);

/**
 * Two-sided exact binomial test: the probability under
 * Binomial(trials, p) of an outcome no more likely than `successes`
 * (the minimum-likelihood rule, as R's binom.test). Small values
 * mean `successes` is implausible in either direction.
 */
double binomialTestP(std::size_t successes, std::size_t trials,
                     double p);

} // namespace printed

#endif // PRINTED_ANALYSIS_YIELD_HH
