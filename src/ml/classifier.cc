#include "classifier.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"
#include "synth/blocks.hh"

namespace printed::ml
{

namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xff;
        h *= kFnvPrime;
    }
}

} // anonymous namespace

const char *
modelKindName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Tree:    return "tree";
      case ModelKind::Ternary: return "ternary";
    }
    return "?";
}

std::optional<ModelKind>
modelKindFromName(const std::string &name)
{
    if (name == "tree")
        return ModelKind::Tree;
    if (name == "ternary")
        return ModelKind::Ternary;
    return std::nullopt;
}

std::string
classOutputName(unsigned cls)
{
    return "class" + std::to_string(cls);
}

NetId
geConst(Netlist &nl, const Bus &a, std::uint64_t c)
{
    // Borrow chain of a - c, LSB to MSB, with the constant operand
    // folded: c_i == 1 -> borrow' = ~a_i | borrow,
    //         c_i == 0 -> borrow' = ~a_i & borrow.
    // a >= c is the inverted final borrow. invalidNet stands for a
    // borrow that is still constant 0 (no cell needed yet).
    NetId borrow = invalidNet;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const bool ci = (c >> i) & 1;
        if (ci) {
            const NetId na = nl.addGate(CellKind::INVX1, a[i]);
            borrow = borrow == invalidNet
                         ? na
                         : nl.addGate(CellKind::OR2X1, na, borrow);
        } else if (borrow != invalidNet) {
            const NetId na = nl.addGate(CellKind::INVX1, a[i]);
            borrow = nl.addGate(CellKind::AND2X1, na, borrow);
        }
    }
    if (borrow == invalidNet)
        return nl.constOne(); // c == 0: unsigned a >= 0 always
    return nl.addGate(CellKind::INVX1, borrow);
}

// ----------------------------------------------------------------
// Decision tree
// ----------------------------------------------------------------

unsigned
TreeModel::predict(const std::uint16_t *x) const
{
    std::int32_t n = 0;
    while (!nodes[std::size_t(n)].leaf) {
        const TreeNode &nd = nodes[std::size_t(n)];
        const unsigned shift = bits - nd.precision;
        n = (x[nd.feature] >> shift) >= (nd.threshold >> shift)
                ? nd.right
                : nd.left;
    }
    return nodes[std::size_t(n)].cls;
}

std::uint64_t
TreeModel::fingerprint() const
{
    // Preorder over *reachable* nodes only, so a pruned tree and
    // its trimmed copy fingerprint identically.
    std::uint64_t h = kFnvOffset;
    fnvMix(h, 0x74726565); // "tree"
    fnvMix(h, features);
    fnvMix(h, classes);
    fnvMix(h, bits);
    std::vector<std::int32_t> stack{0};
    while (!stack.empty()) {
        const TreeNode &nd = nodes[std::size_t(stack.back())];
        stack.pop_back();
        if (nd.leaf) {
            fnvMix(h, 1);
            fnvMix(h, nd.cls);
            continue;
        }
        fnvMix(h, 2);
        fnvMix(h, nd.feature);
        fnvMix(h, nd.threshold);
        fnvMix(h, nd.precision);
        stack.push_back(nd.right);
        stack.push_back(nd.left);
    }
    return h;
}

namespace
{

/** Class histogram of a sample subset. */
std::vector<std::size_t>
classCounts(const Dataset &data,
            const std::vector<std::uint32_t> &subset,
            unsigned classes)
{
    std::vector<std::size_t> counts(classes, 0);
    for (std::uint32_t i : subset)
        ++counts[data.trainY[i]];
    return counts;
}

/** Majority class, lowest index on ties. */
unsigned
majorityClass(const std::vector<std::size_t> &counts)
{
    unsigned best = 0;
    for (unsigned c = 1; c < counts.size(); ++c)
        if (counts[c] > counts[best])
            best = c;
    return best;
}

double
gini(const std::vector<std::size_t> &counts, std::size_t total)
{
    if (total == 0)
        return 0;
    double sum = 0;
    for (std::size_t n : counts) {
        const double p = double(n) / double(total);
        sum += p * p;
    }
    return 1.0 - sum;
}

struct TreeBuilder
{
    const Dataset &data;
    unsigned maxDepth;
    std::vector<TreeNode> nodes;

    std::int32_t
    build(std::vector<std::uint32_t> subset, unsigned depth)
    {
        const unsigned classes = data.spec.classes;
        const auto counts = classCounts(data, subset, classes);
        const unsigned majority = majorityClass(counts);
        const bool pure = counts[majority] == subset.size();

        const std::int32_t idx = std::int32_t(nodes.size());
        nodes.emplace_back();
        nodes[std::size_t(idx)].majority = std::uint8_t(majority);

        unsigned bestFeature = 0;
        std::uint16_t bestThreshold = 0;
        double bestScore = 2.0; // any real split scores < 1
        bool found = false;
        if (!pure && depth < maxDepth && subset.size() >= 2) {
            for (unsigned f = 0; f < data.spec.features; ++f) {
                // Sort by feature value (stable: ties keep sample
                // order, which only affects identical partitions).
                std::vector<std::uint32_t> order = subset;
                std::sort(order.begin(), order.end(),
                          [&](std::uint32_t a, std::uint32_t b) {
                              const auto va = data.trainRow(a)[f];
                              const auto vb = data.trainRow(b)[f];
                              return va != vb ? va < vb : a < b;
                          });
                // Sweep distinct-value boundaries; threshold t sends
                // x >= t right, so t is the right group's minimum.
                std::vector<std::size_t> left(classes, 0);
                auto right = counts;
                for (std::size_t i = 0; i + 1 < order.size(); ++i) {
                    const std::uint8_t y = data.trainY[order[i]];
                    ++left[y];
                    --right[y];
                    const std::uint16_t v =
                        data.trainRow(order[i])[f];
                    const std::uint16_t next =
                        data.trainRow(order[i + 1])[f];
                    if (v == next)
                        continue;
                    const std::size_t nl = i + 1;
                    const std::size_t nr = order.size() - nl;
                    const double score =
                        (double(nl) * gini(left, nl) +
                         double(nr) * gini(right, nr)) /
                        double(order.size());
                    if (score < bestScore) {
                        bestScore = score;
                        bestFeature = f;
                        bestThreshold = next;
                        found = true;
                    }
                }
            }
        }

        if (!found) {
            nodes[std::size_t(idx)].leaf = true;
            nodes[std::size_t(idx)].cls = std::uint8_t(majority);
            return idx;
        }

        std::vector<std::uint32_t> leftSet, rightSet;
        for (std::uint32_t i : subset)
            (data.trainRow(i)[bestFeature] >= bestThreshold
                 ? rightSet
                 : leftSet)
                .push_back(i);

        nodes[std::size_t(idx)].feature = std::uint8_t(bestFeature);
        nodes[std::size_t(idx)].threshold = bestThreshold;
        nodes[std::size_t(idx)].precision =
            std::uint8_t(data.spec.bits);
        const std::int32_t left = build(std::move(leftSet), depth + 1);
        const std::int32_t right =
            build(std::move(rightSet), depth + 1);
        nodes[std::size_t(idx)].left = left;
        nodes[std::size_t(idx)].right = right;
        return idx;
    }
};

} // anonymous namespace

TreeModel
trainTree(const Dataset &data, unsigned maxDepth)
{
    fatalIf(maxDepth < 1 || maxDepth > 12,
            "tree depth must be in [1, 12]");
    TreeModel model;
    model.features = data.spec.features;
    model.classes = data.spec.classes;
    model.bits = data.spec.bits;

    TreeBuilder builder{data, maxDepth, {}};
    std::vector<std::uint32_t> all(data.spec.train);
    std::iota(all.begin(), all.end(), 0);
    builder.build(std::move(all), 0);
    model.nodes = std::move(builder.nodes);
    return model;
}

namespace
{

struct TreeEmitter
{
    Netlist &nl;
    const TreeModel &model;
    const std::vector<Bus> &features;
    std::vector<Bus> leafActs; // per class: activation nets

    /** path == invalidNet encodes the constant-true root path. */
    void
    emit(std::int32_t idx, NetId path)
    {
        const TreeNode &nd = model.nodes[std::size_t(idx)];
        if (nd.leaf) {
            leafActs[nd.cls].push_back(
                path == invalidNet ? nl.constOne() : path);
            return;
        }
        const unsigned shift = model.bits - nd.precision;
        const Bus hi =
            synth::busSlice(features[nd.feature], shift,
                            nd.precision);
        const NetId cond = geConst(nl, hi, nd.threshold >> shift);
        const NetId ncond = nl.addGate(CellKind::INVX1, cond);
        const NetId rightPath =
            path == invalidNet
                ? cond
                : nl.addGate(CellKind::AND2X1, path, cond);
        const NetId leftPath =
            path == invalidNet
                ? ncond
                : nl.addGate(CellKind::AND2X1, path, ncond);
        emit(nd.left, leftPath);
        emit(nd.right, rightPath);
    }
};

} // anonymous namespace

Netlist
buildTreeNetlist(const TreeModel &model)
{
    fatalIf(model.nodes.empty(), "tree model has no nodes");
    Netlist nl("tree_classifier");
    std::vector<Bus> features;
    for (unsigned f = 0; f < model.features; ++f)
        features.push_back(synth::busInputs(
            nl, "f" + std::to_string(f), model.bits));

    TreeEmitter emitter{nl, model, features, {}};
    emitter.leafActs.resize(model.classes);
    emitter.emit(0, invalidNet);

    for (unsigned c = 0; c < model.classes; ++c)
        nl.addOutput(classOutputName(c),
                     synth::orReduce(nl, emitter.leafActs[c]));
    return nl;
}

// ----------------------------------------------------------------
// Ternary network
// ----------------------------------------------------------------

unsigned
TernaryModel::fullAccBits(unsigned inputs, unsigned inputBits)
{
    // Smallest signed width whose positive range holds the largest
    // possible magnitude inputs * (2^inputBits - 1).
    const std::uint64_t maxMag =
        std::uint64_t(inputs) * ((std::uint64_t(1) << inputBits) - 1);
    unsigned width = 2;
    while (((std::uint64_t(1) << (width - 1)) - 1) < maxMag)
        ++width;
    return width;
}

unsigned
TernaryModel::predict(const std::uint16_t *x) const
{
    std::vector<std::int64_t> cur(features);
    for (unsigned f = 0; f < features; ++f)
        cur[f] = x[f];

    for (std::size_t l = 0; l < layers.size(); ++l) {
        const TernaryLayer &layer = layers[l];
        const bool last = l + 1 == layers.size();
        const std::int64_t mod = std::int64_t(1) << layer.accBits;
        const std::int64_t sign = mod >> 1;
        std::vector<std::int64_t> next(layer.out);
        for (unsigned j = 0; j < layer.out; ++j) {
            std::int64_t acc = 0;
            for (unsigned i = 0; i < layer.in; ++i)
                acc += std::int64_t(layer.weight(j, i)) * cur[i];
            // Two's-complement wrap to accBits — exactly the
            // hardware accumulator (mod 2^n is associative, so
            // wrapping once at the end matches per-step wrap).
            acc &= mod - 1;
            if (acc & sign)
                acc -= mod;
            if (!last)
                acc = std::max<std::int64_t>(acc, 0); // ReLU
            next[j] = acc;
        }
        cur = std::move(next);
    }

    unsigned best = 0;
    for (unsigned k = 1; k < classes; ++k)
        if (cur[k] > cur[best])
            best = k;
    return best;
}

std::uint64_t
TernaryModel::fingerprint() const
{
    std::uint64_t h = kFnvOffset;
    fnvMix(h, 0x7465726e); // "tern"
    fnvMix(h, features);
    fnvMix(h, classes);
    fnvMix(h, bits);
    for (const TernaryLayer &layer : layers) {
        fnvMix(h, layer.in);
        fnvMix(h, layer.out);
        fnvMix(h, layer.accBits);
        for (std::int8_t w : layer.w)
            fnvMix(h, std::uint64_t(std::uint8_t(w)));
    }
    return h;
}

TernaryModel
seedTernary(const DatasetSpec &spec, unsigned hidden,
            std::uint64_t seed)
{
    fatalIf(hidden > 16, "ternary hidden width must be <= 16");
    TernaryModel model;
    model.features = spec.features;
    model.classes = spec.classes;
    model.bits = spec.bits;

    auto makeLayer = [&](unsigned in, unsigned out,
                         unsigned inputBits, unsigned tag) {
        TernaryLayer layer;
        layer.in = in;
        layer.out = out;
        layer.accBits = TernaryModel::fullAccBits(in, inputBits);
        layer.w.resize(std::size_t(out) * in);
        Rng rng(mixSeed(seed, tag));
        for (std::int8_t &w : layer.w)
            w = std::int8_t(std::int64_t(rng.below(3)) - 1);
        return layer;
    };

    if (hidden > 0) {
        model.layers.push_back(
            makeLayer(spec.features, hidden, spec.bits, 0));
        model.layers.push_back(makeLayer(
            hidden, spec.classes, model.layers[0].accBits, 1));
    } else {
        model.layers.push_back(
            makeLayer(spec.features, spec.classes, spec.bits, 0));
    }
    return model;
}

Netlist
buildTernaryNetlist(const TernaryModel &model)
{
    fatalIf(model.layers.empty(), "ternary model has no layers");
    Netlist nl("ternary_classifier");
    std::vector<Bus> cur;
    for (unsigned f = 0; f < model.features; ++f)
        cur.push_back(synth::busInputs(
            nl, "f" + std::to_string(f), model.bits));

    for (std::size_t l = 0; l < model.layers.size(); ++l) {
        const TernaryLayer &layer = model.layers[l];
        const bool last = l + 1 == model.layers.size();
        std::vector<Bus> next;
        for (unsigned j = 0; j < layer.out; ++j) {
            // Fold the {-1,0,+1} weights into one ripple
            // adder/subtractor chain over the accBits accumulator
            // (wraparound two's complement; zero weights cost no
            // cells at all).
            Bus acc = synth::busConst(nl, layer.accBits, 0);
            for (unsigned i = 0; i < layer.in; ++i) {
                const std::int8_t w = layer.weight(j, i);
                if (w == 0)
                    continue;
                const Bus ext =
                    synth::busExtend(nl, cur[i], layer.accBits);
                const NetId mode =
                    w > 0 ? nl.constZero() : nl.constOne();
                acc = synth::rippleAddSub(nl, acc, ext, mode, mode)
                          .sum;
            }
            if (!last) {
                // ReLU: clear every bit when the sign is set.
                const NetId nsign = nl.addGate(
                    CellKind::INVX1, acc[layer.accBits - 1]);
                Bus relu;
                for (NetId bit : acc)
                    relu.push_back(
                        nl.addGate(CellKind::AND2X1, bit, nsign));
                next.push_back(std::move(relu));
            } else {
                next.push_back(std::move(acc));
            }
        }
        cur = std::move(next);
    }

    // Comparator tournament argmax: signed compare via offset-binary
    // keys (flip the MSB, compare unsigned with the shared-adder
    // not-borrow). A challenger wins only when strictly greater, so
    // ties keep the lowest class index and the one-hot invariant
    // holds for every input.
    const unsigned accBits = model.layers.back().accBits;
    auto key = [&](const Bus &b) {
        Bus k = b;
        k[accBits - 1] =
            nl.addGate(CellKind::INVX1, b[accBits - 1]);
        return k;
    };

    std::vector<NetId> hot(model.classes);
    hot[0] = nl.constOne();
    Bus bestKey = key(cur[0]);
    for (unsigned k = 1; k < model.classes; ++k) {
        const Bus challenger = key(cur[k]);
        const NetId ge =
            synth::rippleAddSub(nl, bestKey, challenger,
                                nl.constOne(), nl.constOne())
                .carryOut; // best >= challenger (unsigned keys)
        const NetId win = nl.addGate(CellKind::INVX1, ge);
        for (unsigned j = 0; j < k; ++j)
            hot[j] = nl.addGate(CellKind::AND2X1, hot[j], ge);
        hot[k] = win;
        if (k + 1 < model.classes)
            bestKey = synth::busMux2(nl, win, bestKey, challenger);
    }

    for (unsigned c = 0; c < model.classes; ++c)
        nl.addOutput(classOutputName(c), hot[c]);
    return nl;
}

} // namespace printed::ml
