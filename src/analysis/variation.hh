/**
 * @file
 * Process-variation analysis for printed circuits.
 *
 * Printed transistors exhibit far larger parameter spreads than
 * silicon (the paper's EGFET model literature [86, 87] centers on
 * modeling printed process variations). This module runs
 * Monte-Carlo static timing: each cell instance draws a lognormal
 * delay multiplier, the levelized arrival pass is repeated per
 * sample, and the fmax distribution (mean / sigma / percentiles)
 * is reported. Used by bench_variation_yield to show how much
 * guard-band a printed core needs.
 */

#ifndef PRINTED_ANALYSIS_VARIATION_HH
#define PRINTED_ANALYSIS_VARIATION_HH

#include <cstdint>
#include <vector>

#include "netlist/netlist.hh"
#include "tech/library.hh"

namespace printed
{

class ThreadPool;

/** Parameters of the per-cell delay-variation model. */
struct VariationModel
{
    /**
     * Sigma of ln(delay multiplier). Printed EGFET devices show
     * delay spreads of tens of percent; 0.25 gives a ~25% sigma.
     */
    double lnSigma = 0.25;

    /** Monte-Carlo sample count. */
    unsigned samples = 200;

    /**
     * PRNG seed. Sample s draws its multipliers from an
     * independent stream seeded mixSeed(seed, s), so the report is
     * bit-identical for every pool size.
     */
    std::uint64_t seed = 1;

    /**
     * The caller's pool the samples run on; null runs them on the
     * calling thread (a one-thread pool local to the call).
     */
    ThreadPool *pool = nullptr;
};

/** Distribution of the minimum clock period over process samples. */
struct VariationReport
{
    double nominalPeriodUs = 0; ///< no-variation STA period
    double meanPeriodUs = 0;
    double stdDevUs = 0;
    double p50Us = 0;
    double p95Us = 0;
    double p99Us = 0;
    double worstUs = 0;

    /** fmax with a 95th-percentile guard-band [Hz]. */
    double guardedFmaxHz() const { return 1e6 / p95Us; }

    /** Guard-band the variation demands vs nominal (>= 1). */
    double
    guardBand() const
    {
        return p95Us / nominalPeriodUs;
    }
};

/**
 * Nearest-rank p-quantile of an ascending-sorted sample vector.
 * @param sorted non-empty, ascending
 * @param p quantile in [0, 1]; p = 0.5 is the median, p = 1 the max
 *
 * This is the estimator analyzeVariation() uses for its p50/p95/p99
 * columns, exposed so the percentile math is unit-testable against
 * known distributions.
 */
double percentile(const std::vector<double> &sorted, double p);

/**
 * Monte-Carlo timing analysis of a netlist under per-cell delay
 * variation.
 */
VariationReport analyzeVariation(const Netlist &netlist,
                                 const CellLibrary &lib,
                                 const VariationModel &model = {});

} // namespace printed

#endif // PRINTED_ANALYSIS_VARIATION_HH
