/**
 * @file
 * Bespoke printed classifier models and their netlist generators.
 *
 * Two model families, both elaborated directly into the eleven-cell
 * printed standard-cell library so the whole existing toolchain —
 * optimize / harden / characterize / fault Monte-Carlo / the batch
 * simulator — works on them unchanged:
 *
 *   TreeModel     an axis-aligned decision tree. Every split node
 *                 becomes ONE hard-wired comparator (an unsigned
 *                 a >= C borrow chain over the top `precision` bits
 *                 of the feature — the constant-operand
 *                 specialization of rippleAddSub's not-borrow
 *                 trick), path activations are AND chains along the
 *                 root path, and each class output is the OR of its
 *                 leaf activations. Exactly one leaf fires for any
 *                 input, so the "class<k>" outputs are one-hot by
 *                 construction; ties cannot occur.
 *
 *   TernaryModel  MAC layers with weights in {-1, 0, +1} folded to
 *                 ripple adder/subtractor chains over a per-layer
 *                 precision-scaled two's-complement accumulator
 *                 (accBits wide, wraparound semantics — lowering
 *                 accBits is the approximation knob and its cost
 *                 shows up as honest holdout accuracy). Hidden
 *                 layers use a ReLU (bitwise AND with the inverted
 *                 sign); the output layer feeds a comparator
 *                 tournament that emits a one-hot argmax with
 *                 lowest-class-index tie-breaking.
 *
 * Both predict() members implement bit-exact software semantics of
 * the generated netlists; tests/test_ml.cc checks the equivalence
 * vector-for-vector on both simulation engines.
 */

#ifndef PRINTED_ML_CLASSIFIER_HH
#define PRINTED_ML_CLASSIFIER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ml/dataset.hh"
#include "netlist/netlist.hh"

namespace printed::ml
{

/** The two classifier families. */
enum class ModelKind
{
    Tree,
    Ternary,
};

/** Protocol name of a model kind ("tree" / "ternary"). */
const char *modelKindName(ModelKind kind);

/** Inverse of modelKindName; nullopt for unknown names. */
std::optional<ModelKind> modelKindFromName(const std::string &name);

/** Name of class output `k` in generated netlists ("class<k>"). */
std::string classOutputName(unsigned cls);

// ----------------------------------------------------------------
// Decision tree
// ----------------------------------------------------------------

/** One tree node; splits route right when x[feature] >= threshold. */
struct TreeNode
{
    bool leaf = false;
    std::uint8_t cls = 0;       ///< leaf: predicted class
    std::uint8_t majority = 0;  ///< majority train label here (prune target)
    std::uint8_t feature = 0;   ///< split: feature index
    std::uint16_t threshold = 0; ///< split: comparator constant
    std::uint8_t precision = 0; ///< split: compared MSBs (== bits: exact)
    std::int32_t left = -1;     ///< split: child when x[f] < threshold
    std::int32_t right = -1;    ///< split: child when x[f] >= threshold

    bool operator==(const TreeNode &) const = default;
};

/** A trained (possibly approximated) decision tree. */
struct TreeModel
{
    unsigned features = 0;
    unsigned classes = 0;
    unsigned bits = 0;
    std::vector<TreeNode> nodes; ///< node 0 is the root

    /** Predicted class of one feature row (netlist semantics). */
    unsigned predict(const std::uint16_t *x) const;

    /** FNV-1a fingerprint over every behavior-relevant field. */
    std::uint64_t fingerprint() const;

    bool operator==(const TreeModel &) const = default;
};

/**
 * Greedy Gini-impurity training on the train split. Deterministic:
 * candidate splits are scanned in (feature, threshold) order and
 * ties keep the first. All split precisions start at `bits` (exact).
 */
TreeModel trainTree(const Dataset &data, unsigned maxDepth);

/**
 * Elaborate a tree into a netlist (inputs f<i>[b], outputs
 * class<k>). Unvalidated: synth::optimize() validates and seals it.
 */
Netlist buildTreeNetlist(const TreeModel &model);

// ----------------------------------------------------------------
// Ternary network
// ----------------------------------------------------------------

/** One ternary MAC layer. */
struct TernaryLayer
{
    unsigned in = 0;
    unsigned out = 0;
    std::vector<std::int8_t> w; ///< out * in weights in {-1, 0, +1}
    unsigned accBits = 0;       ///< accumulator width (approx knob)

    std::int8_t
    weight(unsigned neuron, unsigned input) const
    {
        return w[std::size_t(neuron) * in + input];
    }

    bool operator==(const TernaryLayer &) const = default;
};

/** A ternary network: optional hidden ReLU layer + output layer. */
struct TernaryModel
{
    unsigned features = 0;
    unsigned classes = 0;
    unsigned bits = 0;
    std::vector<TernaryLayer> layers; ///< 1 (linear) or 2 (hidden)

    /** Predicted class of one feature row (netlist semantics). */
    unsigned predict(const std::uint16_t *x) const;

    /** FNV-1a fingerprint over every behavior-relevant field. */
    std::uint64_t fingerprint() const;

    /** Widest legal accumulator for layer `l` (no overflow). */
    static unsigned fullAccBits(unsigned inputs, unsigned inputBits);

    bool operator==(const TernaryModel &) const = default;
};

/**
 * Seeded random ternary network (the evolutionary loop is the
 * trainer). `hidden` == 0 builds a single linear layer; accumulator
 * widths start at the overflow-free maximum.
 */
TernaryModel seedTernary(const DatasetSpec &spec, unsigned hidden,
                         std::uint64_t seed);

/**
 * Elaborate a ternary net (inputs f<i>[b], outputs class<k>).
 * Unvalidated: synth::optimize() validates and seals it.
 */
Netlist buildTernaryNetlist(const TernaryModel &model);

// ----------------------------------------------------------------
// Shared comparator primitive
// ----------------------------------------------------------------

/**
 * Unsigned a >= C over a bus and a hard-wired constant: the
 * LSB-to-MSB borrow chain with the constant folded away (roughly
 * two cells per bit — the bespoke form of rippleAddSub's
 * subtract/not-borrow comparator). This is the "one comparator per
 * split node" primitive of the tree generator.
 */
NetId geConst(Netlist &nl, const Bus &a, std::uint64_t c);

} // namespace printed::ml

#endif // PRINTED_ML_CLASSIFIER_HH
