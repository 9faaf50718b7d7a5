/**
 * @file
 * Tests for the printed ML classifier subsystem: datasets, the
 * decision-tree and ternary-NN netlist generators, the comparator
 * primitive, and the evolutionary approximation search.
 *
 * The load-bearing properties:
 *   - the generated netlists are bit-exact implementations of the
 *     models' predict() (checked on both simulation engines),
 *   - pruning at full precision is a pure gate-count optimization
 *     (exhaustively checked on a small input space),
 *   - the search is bit-identical across thread counts and scoring
 *     engines, and the Pareto front is canonical.
 */

#include <gtest/gtest.h>

#include "analysis/characterize.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "ml/classifier.hh"
#include "ml/dataset.hh"
#include "ml/evolve.hh"
#include "sim/batch_simulator.hh"
#include "sim/simulator.hh"
#include "synth/blocks.hh"
#include "synth/opt.hh"
#include "tech/library.hh"

namespace printed::ml
{
namespace
{

/** Rebuild a feature bus by port name (survives net compaction). */
Bus
featureBus(const Netlist &nl, unsigned feature, unsigned bits)
{
    Bus bus;
    for (unsigned b = 0; b < bits; ++b)
        bus.push_back(nl.inputNet("f" + std::to_string(feature) +
                                  "[" + std::to_string(b) + "]"));
    return bus;
}

/** Scalar-sim prediction; asserts the class outputs are one-hot. */
unsigned
simPredict(const Netlist &nl, GateSimulator &sim,
           const std::vector<Bus> &features, unsigned classes,
           const std::uint16_t *row)
{
    for (unsigned f = 0; f < features.size(); ++f)
        sim.setBus(features[f], row[f]);
    sim.evaluate();
    unsigned predicted = classes;
    unsigned hot = 0;
    for (unsigned k = 0; k < classes; ++k)
        if (sim.value(nl.outputNet(classOutputName(k)))) {
            if (hot == 0)
                predicted = k;
            ++hot;
        }
    EXPECT_EQ(hot, 1u);
    return predicted;
}

/** Exhaustive/holdout hw-vs-sw equivalence on both engines. */
template <typename Model>
void
expectNetlistMatchesModel(const Model &model, const Netlist &nl,
                          const std::vector<const std::uint16_t *> &rows)
{
    std::vector<Bus> features;
    for (unsigned f = 0; f < model.features; ++f)
        features.push_back(featureBus(nl, f, model.bits));
    std::vector<NetId> outs;
    for (unsigned k = 0; k < model.classes; ++k)
        outs.push_back(nl.outputNet(classOutputName(k)));

    GateSimulator scalar(nl);
    for (const std::uint16_t *row : rows)
        EXPECT_EQ(simPredict(nl, scalar, features, model.classes,
                             row),
                  model.predict(row));

    BatchGateSimulator batch(nl);
    constexpr unsigned lanes = BatchGateSimulator::laneCount;
    for (std::size_t start = 0; start < rows.size();
         start += lanes) {
        const unsigned n =
            unsigned(std::min<std::size_t>(lanes,
                                           rows.size() - start));
        for (unsigned lane = 0; lane < n; ++lane)
            for (unsigned f = 0; f < model.features; ++f)
                batch.setBusLane(features[f], lane,
                                 rows[start + lane][f]);
        batch.evaluate();
        for (unsigned lane = 0; lane < n; ++lane) {
            unsigned predicted = model.classes;
            unsigned hot = 0;
            for (unsigned k = 0; k < model.classes; ++k)
                if (batch.value(outs[k], lane)) {
                    if (hot == 0)
                        predicted = k;
                    ++hot;
                }
            EXPECT_EQ(hot, 1u);
            EXPECT_EQ(predicted,
                      model.predict(rows[start + lane]));
        }
    }
}

std::vector<const std::uint16_t *>
holdoutRows(const Dataset &data)
{
    std::vector<const std::uint16_t *> rows;
    for (unsigned i = 0; i < data.spec.holdout; ++i)
        rows.push_back(data.holdRow(i));
    return rows;
}

/** Every (f0, f1) point of a 2-feature, `bits`-bit input space. */
std::vector<std::uint16_t>
exhaustiveRows(unsigned bits)
{
    const unsigned range = 1u << bits;
    std::vector<std::uint16_t> flat;
    flat.reserve(std::size_t(range) * range * 2);
    for (unsigned a = 0; a < range; ++a)
        for (unsigned b = 0; b < range; ++b) {
            flat.push_back(std::uint16_t(a));
            flat.push_back(std::uint16_t(b));
        }
    return flat;
}

std::vector<const std::uint16_t *>
rowPointers(const std::vector<std::uint16_t> &flat)
{
    std::vector<const std::uint16_t *> rows;
    for (std::size_t i = 0; i < flat.size(); i += 2)
        rows.push_back(flat.data() + i);
    return rows;
}

// ----------------------------------------------------------------
// Datasets
// ----------------------------------------------------------------

TEST(MlDataset, DeterministicAndInRange)
{
    DatasetSpec spec;
    const Dataset a = makeDataset(spec);
    const Dataset b = makeDataset(spec);
    EXPECT_EQ(a.trainX, b.trainX);
    EXPECT_EQ(a.holdX, b.holdX);
    EXPECT_EQ(a.trainY, b.trainY);
    EXPECT_EQ(a.holdY, b.holdY);
    for (std::uint16_t v : a.trainX)
        EXPECT_LT(v, 1u << spec.bits);
    for (std::uint8_t y : a.holdY)
        EXPECT_LT(y, spec.classes);
}

TEST(MlDataset, XorLabelsMatchTopBits)
{
    DatasetSpec spec;
    spec.kind = "xor";
    spec.classes = 2;
    const Dataset data = makeDataset(spec);
    for (unsigned i = 0; i < spec.train; ++i) {
        const std::uint16_t *row = data.trainRow(i);
        const unsigned msb = spec.bits - 1;
        EXPECT_EQ(data.trainY[i],
                  ((row[0] >> msb) ^ (row[1] >> msb)) & 1);
    }
}

TEST(MlDataset, SeedChangesData)
{
    DatasetSpec a, b;
    b.seed = 2;
    EXPECT_NE(makeDataset(a).trainX, makeDataset(b).trainX);
}

// ----------------------------------------------------------------
// Comparator primitive
// ----------------------------------------------------------------

TEST(MlClassifier, GeConstExhaustive)
{
    for (std::uint64_t c = 0; c < 16; ++c) {
        Netlist nl("ge");
        const Bus a = synth::busInputs(nl, "a", 4);
        nl.addOutput("ge", geConst(nl, a, c));
        nl.validate();
        GateSimulator sim(nl);
        for (std::uint64_t v = 0; v < 16; ++v) {
            sim.setBus(a, v);
            sim.evaluate();
            EXPECT_EQ(sim.value(nl.outputNet("ge")), v >= c)
                << "a=" << v << " c=" << c;
        }
    }
}

// ----------------------------------------------------------------
// Golden generator snapshots
// ----------------------------------------------------------------

TEST(MlClassifier, TreeGoldenSnapshot)
{
    const Dataset data = makeDataset(DatasetSpec{});
    const TreeModel model = trainTree(data, 4);
    Netlist nl = buildTreeNetlist(model);
    EXPECT_EQ(nl.gateCount(), 30u);
    synth::optimize(nl);
    const Characterization ch = characterize(nl, egfetLibrary());
    EXPECT_EQ(ch.gateCount(), 28u);
    EXPECT_NEAR(ch.areaCm2(), 0.09509, 1e-4);
    EXPECT_NEAR(ch.fmaxHz(), 63.5486, 1e-3);
    EXPECT_NEAR(ch.powerMw(), 0.674886, 1e-4);
    EXPECT_EQ(ch.stats.seqGates, 0u); // purely combinational
}

TEST(MlClassifier, TernaryGoldenSnapshot)
{
    const DatasetSpec spec;
    const TernaryModel model = seedTernary(spec, 4, 1);
    Netlist nl = buildTernaryNetlist(model);
    EXPECT_EQ(nl.gateCount(), 1431u);
    synth::optimize(nl);
    const Characterization ch = characterize(nl, egfetLibrary());
    EXPECT_EQ(ch.gateCount(), 524u);
    EXPECT_NEAR(ch.areaCm2(), 2.46566, 1e-3);
    EXPECT_EQ(ch.stats.seqGates, 0u);
}

// ----------------------------------------------------------------
// Netlist / software equivalence
// ----------------------------------------------------------------

TEST(MlClassifier, TreeNetlistMatchesSoftware)
{
    const Dataset data = makeDataset(DatasetSpec{});
    const TreeModel model = trainTree(data, 4);
    Netlist nl = buildTreeNetlist(model);
    synth::optimize(nl);
    expectNetlistMatchesModel(model, nl, holdoutRows(data));
}

TEST(MlClassifier, TernaryNetlistMatchesSoftware)
{
    const DatasetSpec spec;
    const Dataset data = makeDataset(spec);
    const TernaryModel model = seedTernary(spec, 4, 1);
    Netlist nl = buildTernaryNetlist(model);
    synth::optimize(nl);
    expectNetlistMatchesModel(model, nl, holdoutRows(data));
}

TEST(MlClassifier, TernaryNarrowAccumulatorStillMatches)
{
    // Narrowed accumulators wrap; the software model must model
    // exactly that wrap. Exhaustive over a 6-bit input space.
    DatasetSpec spec;
    spec.features = 2;
    spec.classes = 2;
    spec.bits = 3;
    const TernaryModel full = seedTernary(spec, 2, 7);
    TernaryModel narrow = full;
    for (TernaryLayer &layer : narrow.layers)
        layer.accBits = 3;
    Netlist nl = buildTernaryNetlist(narrow);
    synth::optimize(nl);
    const auto flat = exhaustiveRows(spec.bits);
    expectNetlistMatchesModel(narrow, nl, rowPointers(flat));
}

// ----------------------------------------------------------------
// Approximation regressions
// ----------------------------------------------------------------

TEST(MlClassifier, PruningPureSubtreeIsExactAtFullPrecision)
{
    // A split whose subtree is class-pure prunes to a leaf with no
    // behavioral change; only the gate count moves. Checked
    // exhaustively on the whole 2-feature 4-bit input space.
    TreeModel model;
    model.features = 2;
    model.classes = 2;
    model.bits = 4;
    model.nodes.resize(5);
    // node 0: root split on f0 >= 8
    model.nodes[0].feature = 0;
    model.nodes[0].threshold = 8;
    model.nodes[0].precision = 4;
    model.nodes[0].left = 1;
    model.nodes[0].right = 2;
    // node 1: pure subtree — both leaves class 0
    model.nodes[1].feature = 1;
    model.nodes[1].threshold = 4;
    model.nodes[1].precision = 4;
    model.nodes[1].majority = 0;
    model.nodes[1].left = 3;
    model.nodes[1].right = 4;
    model.nodes[2] = TreeNode{.leaf = true, .cls = 1};
    model.nodes[3] = TreeNode{.leaf = true, .cls = 0};
    model.nodes[4] = TreeNode{.leaf = true, .cls = 0};

    TreeModel pruned = model;
    pruned.nodes[1].leaf = true;
    pruned.nodes[1].cls = pruned.nodes[1].majority;

    Netlist fullNl = buildTreeNetlist(model);
    Netlist prunedNl = buildTreeNetlist(pruned);
    synth::optimize(fullNl);
    synth::optimize(prunedNl);
    EXPECT_LT(prunedNl.gateCount(), fullNl.gateCount());

    const auto flat = exhaustiveRows(model.bits);
    const auto rows = rowPointers(flat);
    for (const std::uint16_t *row : rows)
        EXPECT_EQ(model.predict(row), pruned.predict(row));
    expectNetlistMatchesModel(pruned, prunedNl, rows);
    // Different reachable shapes fingerprint differently...
    EXPECT_NE(model.fingerprint(), pruned.fingerprint());
    // ...but trimming unreachable node storage does not.
    TreeModel trimmed = pruned;
    trimmed.nodes.resize(3);
    EXPECT_EQ(trimmed.fingerprint(), pruned.fingerprint());
}

TEST(MlClassifier, PrecisionScalingDropsComparatorBits)
{
    // Lowering a node's precision compares only the top bits —
    // semantics match the shifted software compare exhaustively.
    DatasetSpec spec;
    spec.features = 2;
    spec.classes = 2;
    spec.bits = 4;
    spec.kind = "xor";
    const Dataset data = makeDataset(spec);
    TreeModel model = trainTree(data, 3);
    for (TreeNode &nd : model.nodes)
        if (!nd.leaf)
            nd.precision = 2;
    Netlist nl = buildTreeNetlist(model);
    synth::optimize(nl);
    const auto flat = exhaustiveRows(spec.bits);
    expectNetlistMatchesModel(model, nl, rowPointers(flat));
}

// ----------------------------------------------------------------
// Evolutionary search
// ----------------------------------------------------------------

ClassifySpec
quickTreeSpec()
{
    ClassifySpec spec;
    spec.dataset.train = 96;
    spec.dataset.holdout = 64;
    spec.search.generations = 3;
    spec.search.population = 6;
    return spec;
}

TEST(MlEvolve, DeterministicAcrossThreadCounts)
{
    const ClassifySpec spec = quickTreeSpec();
    ThreadPool p1(1), p4(4), p16(16);
    const ClassifyResult r1 = runClassify(spec, p1);
    const ClassifyResult r4 = runClassify(spec, p4);
    const ClassifyResult r16 = runClassify(spec, p16);
    EXPECT_EQ(r1, r4);
    EXPECT_EQ(r1, r16);
    EXPECT_EQ(r1.generations.size(), spec.search.generations);
    EXPECT_FALSE(r1.front.empty());
}

TEST(MlEvolve, BatchAndScalarEnginesAgree)
{
    ClassifySpec spec = quickTreeSpec();
    ThreadPool pool(4);
    const ClassifyResult batch = runClassify(spec, pool);
    spec.search.engine = ScoreEngine::Scalar;
    const ClassifyResult scalar = runClassify(spec, pool);
    EXPECT_EQ(batch, scalar);
}

TEST(MlEvolve, FrontIsCanonicalAndNonDominated)
{
    ThreadPool pool(4);
    const ClassifyResult r = runClassify(quickTreeSpec(), pool);
    for (std::size_t i = 0; i < r.front.size(); ++i) {
        EXPECT_TRUE(r.front[i].feasible);
        EXPECT_GT(r.front[i].gates, 0u);
        for (std::size_t j = 0; j < r.front.size(); ++j) {
            if (i != j) {
                EXPECT_FALSE(r.front[j].accuracy >=
                                 r.front[i].accuracy &&
                             r.front[j].gates <= r.front[i].gates)
                    << "entry " << j << " dominates " << i;
            }
        }
    }
    // Non-dominated + gates-ascending forces accuracy-ascending.
    for (std::size_t i = 1; i < r.front.size(); ++i) {
        EXPECT_LT(r.front[i - 1].gates, r.front[i].gates);
        EXPECT_LT(r.front[i - 1].accuracy, r.front[i].accuracy);
    }
}

TEST(MlEvolve, TernarySearchImprovesOnRandomSeed)
{
    ClassifySpec spec;
    spec.model = ModelKind::Ternary;
    spec.hidden = 0;
    spec.dataset.holdout = 64;
    spec.search.generations = 4;
    spec.search.population = 8;
    ThreadPool pool(4);
    const ClassifyResult r = runClassify(spec, pool);
    ASSERT_FALSE(r.front.empty());
    double best = 0;
    for (const CandidateReport &c : r.front)
        best = std::max(best, c.accuracy);
    EXPECT_GE(best, r.baseline.accuracy);
}

TEST(MlEvolve, BudgetGatesFeasibility)
{
    // An absurdly small area budget empties the front.
    ClassifySpec spec = quickTreeSpec();
    spec.budget.maxAreaCm2 = 1e-9;
    ThreadPool pool(1);
    const ClassifyResult r = runClassify(spec, pool);
    EXPECT_TRUE(r.front.empty());
    EXPECT_FALSE(r.baseline.feasible);

    // Every printed battery powers a ~30-gate tree comfortably.
    ClassifySpec powered = quickTreeSpec();
    powered.budget.battery = "Blue Spark 10mAh";
    const ClassifyResult ok = runClassify(powered, pool);
    EXPECT_FALSE(ok.front.empty());
}

TEST(MlEvolve, CachedRunReplaysCallbackAndCountsHits)
{
    classifyCacheClear();
    const ClassifySpec spec = quickTreeSpec();
    ThreadPool pool(4);
    const std::uint64_t hits0 =
        metrics::counter("ml.cache_hits").value();
    const std::uint64_t miss0 =
        metrics::counter("ml.cache_misses").value();

    std::vector<GenerationReport> first, second;
    const auto a = runClassifyCached(
        spec, pool,
        [&](const GenerationReport &g) { first.push_back(g); });
    const auto b = runClassifyCached(
        spec, pool,
        [&](const GenerationReport &g) { second.push_back(g); });

    EXPECT_EQ(a.get(), b.get()); // the literal cached object
    EXPECT_EQ(first, second);    // replayed frames are identical
    EXPECT_EQ(first.size(), spec.search.generations);
    EXPECT_EQ(metrics::counter("ml.cache_hits").value(), hits0 + 1);
    EXPECT_EQ(metrics::counter("ml.cache_misses").value(),
              miss0 + 1);
    classifyCacheClear();
}

TEST(MlEvolve, SpecKeySeparatesConfigs)
{
    ClassifySpec a = quickTreeSpec();
    ClassifySpec b = a;
    EXPECT_EQ(classifySpecKey(a), classifySpecKey(b));
    b.search.seed = 99;
    EXPECT_NE(classifySpecKey(a), classifySpecKey(b));
    b = a;
    b.search.engine = ScoreEngine::Scalar;
    EXPECT_NE(classifySpecKey(a), classifySpecKey(b));
    b = a;
    b.model = ModelKind::Ternary;
    EXPECT_NE(classifySpecKey(a), classifySpecKey(b));
}

TEST(MlEvolve, NameRoundTrips)
{
    EXPECT_EQ(modelKindFromName("tree"), ModelKind::Tree);
    EXPECT_EQ(modelKindFromName("ternary"), ModelKind::Ternary);
    EXPECT_EQ(modelKindFromName("mlp"), std::nullopt);
    EXPECT_STREQ(modelKindName(ModelKind::Tree), "tree");
    EXPECT_STREQ(scoreEngineName(ScoreEngine::Scalar), "scalar");
}

} // anonymous namespace
} // namespace printed::ml
