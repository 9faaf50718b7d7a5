/**
 * @file
 * Seeded deterministic evolutionary approximation search for the
 * printed classifiers.
 *
 * The search mutates a base model (a Gini-trained tree or a seeded
 * ternary net) along the bespoke approximation axes — per-node
 * threshold precision, subtree pruning to the stored majority
 * class, weight zeroing/flipping, accumulator narrowing — and keeps
 * the accuracy/area Pareto front of every feasible candidate seen.
 *
 * Determinism contract (the classify endpoint's replies are
 * byte-identical across runs, thread counts, and scoring
 * engines because of these rules):
 *
 *   1. Candidate (generation g, slot i) derives all randomness from
 *      Rng(mixSeed(mixSeed(search.seed, g), i)) — never from a
 *      shared stream.
 *   2. Candidates are scored with ThreadPool::parallelMap and
 *      reduced sequentially in index order; metrics counters are
 *      bumped only in the sequential reduction.
 *   3. Scoring is integer holdout accuracy over the generated
 *      netlist itself (after synth::optimize), so the Batch and
 *      Scalar engines agree bit-for-bit, plus characterize() for
 *      area/power against the budget.
 *   4. Front ordering is total: gates ascending, then accuracy
 *      descending, then fingerprint ascending; dominance filtering
 *      and fingerprint dedupe keep the front canonical.
 */

#ifndef PRINTED_ML_EVOLVE_HH
#define PRINTED_ML_EVOLVE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "ml/classifier.hh"
#include "ml/dataset.hh"

namespace printed::ml
{

/** Which simulation engine scores holdout accuracy. */
enum class ScoreEngine
{
    Batch,  ///< 64-lane BatchGateSimulator (64 vectors per word)
    Scalar, ///< GateSimulator, one vector at a time (oracle)
};

/** Name of a scoring engine ("batch" / "scalar") in classifySpecKey. */
const char *scoreEngineName(ScoreEngine engine);

/** Evolutionary loop shape. */
struct SearchSpec
{
    unsigned generations = 6;  ///< [1, 64]
    unsigned population = 12;  ///< candidates per generation, [1, 256]
    std::uint64_t seed = 1;    ///< master search seed
    ScoreEngine engine = ScoreEngine::Batch;

    bool operator==(const SearchSpec &) const = default;
};

/** Feasibility budget a candidate must meet to enter the front. */
struct BudgetSpec
{
    std::string battery;    ///< printedBatteries() name, "" = none
    double maxAreaCm2 = 0;  ///< 0 = unconstrained

    bool operator==(const BudgetSpec &) const = default;
};

/** Everything that keys one classify run. */
struct ClassifySpec
{
    DatasetSpec dataset;
    ModelKind model = ModelKind::Tree;
    unsigned depth = 4;   ///< tree: max depth, [1, 12]
    unsigned hidden = 0;  ///< ternary: hidden width, [0, 16]
    SearchSpec search;
    BudgetSpec budget;

    /** fatal()s on out-of-range or inconsistent parameters. */
    void check() const;

    bool operator==(const ClassifySpec &) const = default;
};

/** One scored candidate (a Pareto-front entry). */
struct CandidateReport
{
    double accuracy = 0;  ///< holdout accuracy in [0, 1]
    std::size_t gates = 0; ///< gate count after synth::optimize
    double areaCm2 = 0;
    double powerMw = 0;
    double fmaxHz = 0;
    bool feasible = true; ///< within the BudgetSpec
    std::uint64_t fnv = 0; ///< model fingerprint

    bool operator==(const CandidateReport &) const = default;
};

/** Per-generation progress summary (one streamed frame each). */
struct GenerationReport
{
    unsigned generation = 0;
    std::size_t scored = 0;       ///< candidates scored this gen
    double bestAccuracy = 0;      ///< best feasible accuracy so far
    std::size_t bestGates = 0;    ///< gates of the best-accuracy entry
    std::size_t frontSize = 0;
    std::size_t prunedGates = 0;  ///< cumulative gates saved vs baseline

    bool operator==(const GenerationReport &) const = default;
};

/** Full result of one classify run. */
struct ClassifyResult
{
    CandidateReport baseline;
    std::vector<GenerationReport> generations;
    std::vector<CandidateReport> front; ///< gates asc, acc desc

    bool operator==(const ClassifyResult &) const = default;
};

/** Invoked after each generation's sequential reduction. */
using GenerationCallback =
    std::function<void(const GenerationReport &)>;

/**
 * Run the evolutionary approximation search. Bit-identical for any
 * pool.threadCount() and either scoring engine. Bumps the ml.*
 * counters (candidates_scored, generations, pruned_gates).
 */
ClassifyResult runClassify(const ClassifySpec &spec, ThreadPool &pool,
                           const GenerationCallback &cb = {});

/**
 * Cached runClassify: a process-wide LRU keyed by classifySpecKey
 * makes repeated classify requests for the same config free. On a
 * hit the callback is replayed from the cached generation reports,
 * so streamed replies are byte-identical to the first run. Bumps
 * ml.cache_hits / ml.cache_misses.
 */
std::shared_ptr<const ClassifyResult>
runClassifyCached(const ClassifySpec &spec, ThreadPool &pool,
                  const GenerationCallback &cb = {});

/** Canonical text key of a spec (also the coalesce/route key text). */
std::string classifySpecKey(const ClassifySpec &spec);

/** Drop every cached classify result (tests). */
void classifyCacheClear();

} // namespace printed::ml

#endif // PRINTED_ML_EVOLVE_HH
