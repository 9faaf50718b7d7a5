#include "evolve.hh"

#include <algorithm>
#include <charconv>
#include <list>
#include <mutex>
#include <unordered_map>

#include "analysis/characterize.hh"
#include "apps/battery.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "sim/batch_simulator.hh"
#include "sim/simulator.hh"
#include "synth/blocks.hh"
#include "synth/opt.hh"
#include "tech/library.hh"

namespace printed::ml
{

namespace
{

/** Shortest round-trip decimal of a double (key rendering). */
std::string
fmtDouble(double v)
{
    char buf[64];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/** One candidate: exactly one member is live, keyed by the spec. */
struct Candidate
{
    TreeModel tree;
    TernaryModel tern;
};

std::uint64_t
candidateFnv(const ClassifySpec &spec, const Candidate &cand)
{
    return spec.model == ModelKind::Tree ? cand.tree.fingerprint()
                                         : cand.tern.fingerprint();
}

/** A Pareto-front entry keeps its model so it can parent mutants. */
struct FrontEntry
{
    CandidateReport report;
    Candidate model;
};

// ------------------------------------------------------------
// Mutation
// ------------------------------------------------------------

/** Reachable node indices of a tree, preorder, split/leaf split. */
void
reachableNodes(const TreeModel &m, std::vector<std::int32_t> &splits,
               std::vector<std::int32_t> &leaves)
{
    splits.clear();
    leaves.clear();
    std::vector<std::int32_t> stack{0};
    while (!stack.empty()) {
        const std::int32_t idx = stack.back();
        stack.pop_back();
        const TreeNode &nd = m.nodes[std::size_t(idx)];
        if (nd.leaf) {
            leaves.push_back(idx);
            continue;
        }
        splits.push_back(idx);
        stack.push_back(nd.right);
        stack.push_back(nd.left);
    }
}

/**
 * Tree mutations along the approximation axes:
 *   0  lower/raise one split's comparator precision in [1, bits]
 *   1  prune a non-root subtree to its stored majority class
 *   2  revive a pruned subtree from the base model (node storage is
 *      positional and never shrinks, so base child links stay valid)
 * The root is never pruned: a tree must keep at least one
 * comparator so every candidate characterizes meaningfully.
 */
TreeModel
mutateTree(const TreeModel &base, const TreeModel &parent, Rng &rng)
{
    TreeModel m = parent;
    std::vector<std::int32_t> splits, leaves;
    const unsigned mutations = 1 + unsigned(rng.below(2));
    for (unsigned rep = 0; rep < mutations; ++rep) {
        reachableNodes(m, splits, leaves);
        const std::uint64_t op = rng.below(3);
        if (op == 0) {
            if (splits.empty())
                continue;
            const std::int32_t idx =
                splits[rng.below(splits.size())];
            m.nodes[std::size_t(idx)].precision =
                std::uint8_t(1 + rng.below(m.bits));
        } else if (op == 1) {
            std::vector<std::int32_t> prunable;
            for (std::int32_t idx : splits)
                if (idx != 0)
                    prunable.push_back(idx);
            if (prunable.empty())
                continue;
            TreeNode &nd = m.nodes[std::size_t(
                prunable[rng.below(prunable.size())])];
            nd.leaf = true;
            nd.cls = nd.majority;
        } else {
            std::vector<std::int32_t> revivable;
            for (std::int32_t idx : leaves)
                if (!base.nodes[std::size_t(idx)].leaf)
                    revivable.push_back(idx);
            if (revivable.empty())
                continue;
            const std::int32_t idx =
                revivable[rng.below(revivable.size())];
            m.nodes[std::size_t(idx)] =
                base.nodes[std::size_t(idx)];
        }
    }
    return m;
}

/**
 * Ternary mutations: re-draw one weight in {-1, 0, +1} (zeroing a
 * weight deletes its whole adder/subtractor stage) or step one
 * layer's accumulator width within [2, base width]. The base width
 * is the overflow-free maximum, so widening never past it.
 */
TernaryModel
mutateTernary(const TernaryModel &base, const TernaryModel &parent,
              Rng &rng)
{
    TernaryModel m = parent;
    const unsigned mutations = 1 + unsigned(rng.below(2));
    for (unsigned rep = 0; rep < mutations; ++rep) {
        const std::size_t l = rng.below(m.layers.size());
        TernaryLayer &layer = m.layers[l];
        if (rng.below(2) == 0) {
            const std::size_t j = rng.below(layer.out);
            const std::size_t i = rng.below(layer.in);
            layer.w[j * layer.in + i] =
                std::int8_t(std::int64_t(rng.below(3)) - 1);
        } else {
            const unsigned maxBits = base.layers[l].accBits;
            if (rng.flip())
                layer.accBits =
                    std::min(maxBits, layer.accBits + 1);
            else
                layer.accBits = std::max(2u, layer.accBits - 1);
        }
    }
    return m;
}

Candidate
mutate(const ClassifySpec &spec, const Candidate &base,
       const Candidate &parent, Rng &rng)
{
    Candidate cand;
    if (spec.model == ModelKind::Tree)
        cand.tree = mutateTree(base.tree, parent.tree, rng);
    else
        cand.tern = mutateTernary(base.tern, parent.tern, rng);
    return cand;
}

// ------------------------------------------------------------
// Scoring
// ------------------------------------------------------------

/** Rebuild a feature bus by port name after net compaction. */
Bus
inputBus(const Netlist &nl, unsigned feature, unsigned bits)
{
    Bus bus;
    const std::string base = "f" + std::to_string(feature);
    for (unsigned b = 0; b < bits; ++b)
        bus.push_back(
            nl.inputNet(base + "[" + std::to_string(b) + "]"));
    return bus;
}

unsigned
firstSetClass(const std::vector<bool> &hot)
{
    for (unsigned k = 0; k < hot.size(); ++k)
        if (hot[k])
            return k;
    return 0; // unreachable: outputs are one-hot by construction
}

std::size_t
countCorrect(const ClassifySpec &spec, const Dataset &data,
             const Netlist &nl)
{
    const unsigned features = spec.dataset.features;
    const unsigned classes = spec.dataset.classes;
    const unsigned holdout = spec.dataset.holdout;
    std::vector<Bus> fbus;
    for (unsigned f = 0; f < features; ++f)
        fbus.push_back(inputBus(nl, f, spec.dataset.bits));
    std::vector<NetId> outs;
    for (unsigned k = 0; k < classes; ++k)
        outs.push_back(nl.outputNet(classOutputName(k)));

    std::size_t correct = 0;
    std::vector<bool> hot(classes);
    if (spec.search.engine == ScoreEngine::Batch) {
        // 64 holdout vectors per lane word.
        BatchGateSimulator sim(nl);
        constexpr unsigned lanes = BatchGateSimulator::laneCount;
        for (unsigned start = 0; start < holdout; start += lanes) {
            const unsigned n = std::min(lanes, holdout - start);
            for (unsigned lane = 0; lane < n; ++lane) {
                const std::uint16_t *row = data.holdRow(start + lane);
                for (unsigned f = 0; f < features; ++f)
                    sim.setBusLane(fbus[f], lane, row[f]);
            }
            sim.evaluate();
            for (unsigned lane = 0; lane < n; ++lane) {
                for (unsigned k = 0; k < classes; ++k)
                    hot[k] = sim.value(outs[k], lane);
                if (firstSetClass(hot) == data.holdY[start + lane])
                    ++correct;
            }
        }
    } else {
        GateSimulator sim(nl);
        for (unsigned i = 0; i < holdout; ++i) {
            const std::uint16_t *row = data.holdRow(i);
            for (unsigned f = 0; f < features; ++f)
                sim.setBus(fbus[f], row[f]);
            sim.evaluate();
            for (unsigned k = 0; k < classes; ++k)
                hot[k] = sim.value(outs[k]);
            if (firstSetClass(hot) == data.holdY[i])
                ++correct;
        }
    }
    return correct;
}

/**
 * Score one candidate: elaborate, optimize (so gate counts are
 * honest), measure holdout accuracy on the optimized netlist
 * itself, then characterize against the budget. Runs inside
 * parallelMap workers — no shared mutable state, no counters.
 */
CandidateReport
scoreOne(const ClassifySpec &spec, const Dataset &data,
         const Candidate &cand)
{
    Netlist nl = spec.model == ModelKind::Tree
                     ? buildTreeNetlist(cand.tree)
                     : buildTernaryNetlist(cand.tern);
    synth::optimize(nl);

    CandidateReport report;
    report.fnv = candidateFnv(spec, cand);
    report.accuracy = double(countCorrect(spec, data, nl)) /
                      double(spec.dataset.holdout);
    report.gates = nl.gateCount();
    if (report.gates == 0) {
        // Precision scaling folded the whole model to constants; a
        // gateless design has no period to characterize. Keep the
        // (real) accuracy but bar it from the front.
        report.feasible = false;
        return report;
    }

    const Characterization ch = characterize(nl, egfetLibrary());
    report.areaCm2 = ch.areaCm2();
    report.powerMw = ch.powerMw();
    report.fmaxHz = ch.fmaxHz();

    report.feasible = true;
    if (!spec.budget.battery.empty()) {
        for (const Battery &b : printedBatteries())
            if (b.name == spec.budget.battery)
                report.feasible =
                    withinPowerBudget(b, report.powerMw);
    }
    if (spec.budget.maxAreaCm2 > 0 &&
        report.areaCm2 > spec.budget.maxAreaCm2)
        report.feasible = false;
    return report;
}

// ------------------------------------------------------------
// Pareto front
// ------------------------------------------------------------

/** f dominates-or-ties c: no reason to admit c. */
bool
covers(const CandidateReport &f, const CandidateReport &c)
{
    return f.accuracy >= c.accuracy && f.gates <= c.gates;
}

/**
 * Admit a feasible candidate into the front: fingerprint-deduped,
 * dominance-filtered, kept sorted (gates asc, accuracy desc, fnv
 * asc) so the front is canonical and replies are byte-stable.
 */
void
admitToFront(std::vector<FrontEntry> &front,
             const CandidateReport &report, const Candidate &model)
{
    if (!report.feasible)
        return;
    for (const FrontEntry &e : front)
        if (e.report.fnv == report.fnv || covers(e.report, report))
            return;
    std::erase_if(front, [&](const FrontEntry &e) {
        return covers(report, e.report);
    });
    FrontEntry entry{report, model};
    const auto pos = std::find_if(
        front.begin(), front.end(), [&](const FrontEntry &e) {
            if (e.report.gates != report.gates)
                return e.report.gates > report.gates;
            if (e.report.accuracy != report.accuracy)
                return e.report.accuracy < report.accuracy;
            return e.report.fnv > report.fnv;
        });
    front.insert(pos, std::move(entry));
}

GenerationReport
summarize(unsigned generation, std::size_t scored,
          const std::vector<FrontEntry> &front,
          std::size_t prunedGates)
{
    GenerationReport rep;
    rep.generation = generation;
    rep.scored = scored;
    rep.frontSize = front.size();
    rep.prunedGates = prunedGates;
    for (const FrontEntry &e : front)
        if (e.report.accuracy > rep.bestAccuracy ||
            (e.report.accuracy == rep.bestAccuracy &&
             rep.bestGates == 0)) {
            rep.bestAccuracy = e.report.accuracy;
            rep.bestGates = e.report.gates;
        }
    return rep;
}

} // anonymous namespace

const char *
scoreEngineName(ScoreEngine engine)
{
    switch (engine) {
      case ScoreEngine::Batch:  return "batch";
      case ScoreEngine::Scalar: return "scalar";
    }
    return "?";
}

void
ClassifySpec::check() const
{
    dataset.check();
    fatalIf(depth < 1 || depth > 12,
            "classify depth must be in [1, 12]");
    fatalIf(hidden > 16, "classify hidden must be in [0, 16]");
    fatalIf(search.generations < 1 || search.generations > 64,
            "classify generations must be in [1, 64]");
    fatalIf(search.population < 1 || search.population > 256,
            "classify population must be in [1, 256]");
    fatalIf(budget.maxAreaCm2 < 0,
            "classify max_area_cm2 must be >= 0");
    if (!budget.battery.empty()) {
        bool known = false;
        for (const Battery &b : printedBatteries())
            known = known || b.name == budget.battery;
        if (!known)
            fatal("classify budget battery \"" + budget.battery +
                  "\" is not a printed battery");
    }
}

std::string
classifySpecKey(const ClassifySpec &spec)
{
    std::string key = "dataset=" + spec.dataset.kind + "," +
                      std::to_string(spec.dataset.features) + "," +
                      std::to_string(spec.dataset.classes) + "," +
                      std::to_string(spec.dataset.bits) + "," +
                      std::to_string(spec.dataset.train) + "," +
                      std::to_string(spec.dataset.holdout) + "," +
                      std::to_string(spec.dataset.seed);
    key += ";model=" + std::string(modelKindName(spec.model)) + "," +
           std::to_string(spec.depth) + "," +
           std::to_string(spec.hidden);
    key += ";search=" + std::to_string(spec.search.generations) +
           "," + std::to_string(spec.search.population) + "," +
           std::to_string(spec.search.seed) + "," +
           scoreEngineName(spec.search.engine);
    key += ";budget=" + spec.budget.battery + "," +
           fmtDouble(spec.budget.maxAreaCm2);
    return key;
}

ClassifyResult
runClassify(const ClassifySpec &spec, ThreadPool &pool,
            const GenerationCallback &cb)
{
    spec.check();
    const Dataset data = makeDataset(spec.dataset);

    Candidate base;
    if (spec.model == ModelKind::Tree)
        base.tree = trainTree(data, spec.depth);
    else
        base.tern =
            seedTernary(spec.dataset, spec.hidden, spec.search.seed);

    ClassifyResult result;
    result.baseline = scoreOne(spec, data, base);
    metrics::counter("ml.candidates_scored").add(1);

    std::vector<FrontEntry> front;
    admitToFront(front, result.baseline, base);

    std::size_t prunedGates = 0;
    const unsigned population = spec.search.population;
    for (unsigned g = 0; g < spec.search.generations; ++g) {
        // Build the generation sequentially: candidate (g, i) is a
        // pure function of the master seed and the front state at
        // the start of the generation.
        std::vector<Candidate> cands(population);
        for (unsigned i = 0; i < population; ++i) {
            Rng rng(mixSeed(mixSeed(spec.search.seed, g), i));
            const Candidate &parent =
                front.empty()
                    ? base
                    : front[rng.below(front.size())].model;
            cands[i] = mutate(spec, base, parent, rng);
        }

        // Score in parallel; item i touches only its own slot.
        const auto reports =
            pool.parallelMap(population, [&](std::size_t i) {
                return scoreOne(spec, data, cands[i]);
            });

        // Sequential index-order reduction: counters and front
        // updates happen here only, so totals and the front are
        // thread-count-invariant.
        for (unsigned i = 0; i < population; ++i) {
            const CandidateReport &r = reports[i];
            metrics::counter("ml.candidates_scored").add(1);
            if (r.feasible && r.gates < result.baseline.gates)
                prunedGates += result.baseline.gates - r.gates;
            admitToFront(front, r, cands[i]);
        }
        metrics::counter("ml.generations").add(1);
        metrics::counter("ml.pruned_gates")
            .add(prunedGates - (result.generations.empty()
                                    ? 0
                                    : result.generations.back()
                                          .prunedGates));

        result.generations.push_back(
            summarize(g, population, front, prunedGates));
        if (cb)
            cb(result.generations.back());
    }

    result.front.reserve(front.size());
    for (const FrontEntry &e : front)
        result.front.push_back(e.report);
    return result;
}

namespace
{

/** Process-wide LRU of classify results (repeat configs are free). */
struct ClassifyCache
{
    static constexpr std::size_t kCapacity = 32;

    std::mutex mutex;
    std::list<std::string> order; // front = most recent
    std::unordered_map<std::string,
                       std::pair<std::list<std::string>::iterator,
                                 std::shared_ptr<const ClassifyResult>>>
        entries;

    std::shared_ptr<const ClassifyResult>
    lookup(const std::string &key)
    {
        std::lock_guard lock(mutex);
        const auto it = entries.find(key);
        if (it == entries.end())
            return nullptr;
        order.splice(order.begin(), order, it->second.first);
        return it->second.second;
    }

    void
    insert(const std::string &key,
           std::shared_ptr<const ClassifyResult> value)
    {
        std::lock_guard lock(mutex);
        if (entries.count(key))
            return; // a concurrent miss computed it first
        order.push_front(key);
        entries.emplace(key,
                        std::make_pair(order.begin(),
                                       std::move(value)));
        while (entries.size() > kCapacity) {
            entries.erase(order.back());
            order.pop_back();
        }
    }

    void
    clear()
    {
        std::lock_guard lock(mutex);
        entries.clear();
        order.clear();
    }
};

ClassifyCache &
classifyCache()
{
    static ClassifyCache cache;
    return cache;
}

} // anonymous namespace

std::shared_ptr<const ClassifyResult>
runClassifyCached(const ClassifySpec &spec, ThreadPool &pool,
                  const GenerationCallback &cb)
{
    spec.check();
    const std::string key = classifySpecKey(spec);
    if (auto hit = classifyCache().lookup(key)) {
        metrics::counter("ml.cache_hits").add(1);
        if (cb)
            for (const GenerationReport &g : hit->generations)
                cb(g);
        return hit;
    }
    metrics::counter("ml.cache_misses").add(1);
    auto result = std::make_shared<const ClassifyResult>(
        runClassify(spec, pool, cb));
    classifyCache().insert(key, result);
    return result;
}

void
classifyCacheClear()
{
    classifyCache().clear();
}

} // namespace printed::ml
