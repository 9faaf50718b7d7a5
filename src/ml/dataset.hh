/**
 * @file
 * Deterministic synthetic datasets for the printed ML classifiers.
 *
 * The repository has no external training data (and must not fetch
 * any), so datasets are generated from a seeded SplitMix64 stream:
 * the same DatasetSpec always produces the same vectors, which is
 * what makes classify replies byte-identical across runs, thread
 * counts, and scoring engines.
 *
 * Two families cover the two classifier generators' sweet spots:
 *
 *   "blobs"  one integer centroid per (class, feature) plus bounded
 *            uniform noise — axis-aligned clusters a shallow
 *            decision tree separates well.
 *   "xor"    two classes labelled by the XOR of the top bits of
 *            features 0 and 1 — not linearly separable, so a
 *            single ternary layer fails and depth pays off.
 *
 * All samples are unsigned integers of `bits` bits, matching the
 * feature buses the netlist generators elaborate. Train and holdout
 * splits come from disjoint seed streams; candidates are selected
 * on holdout accuracy only.
 */

#ifndef PRINTED_ML_DATASET_HH
#define PRINTED_ML_DATASET_HH

#include <cstdint>
#include <string>
#include <vector>

namespace printed::ml
{

/** Parameters of one synthetic dataset (every field keys it). */
struct DatasetSpec
{
    std::string kind = "blobs"; ///< "blobs" or "xor"
    unsigned features = 4;      ///< [1, 16]
    unsigned classes = 3;       ///< [2, 10] ("xor" forces 2)
    unsigned bits = 8;          ///< feature precision, [2, 12]
    unsigned train = 192;       ///< training vectors, [8, 4096]
    unsigned holdout = 128;     ///< scoring vectors, [8, 4096]
    std::uint64_t seed = 1;

    /** fatal()s on out-of-range or inconsistent parameters. */
    void check() const;

    bool operator==(const DatasetSpec &) const = default;
};

/** A generated dataset: row-major feature matrices plus labels. */
struct Dataset
{
    DatasetSpec spec;
    std::vector<std::uint16_t> trainX; ///< train * features
    std::vector<std::uint8_t> trainY;  ///< train labels
    std::vector<std::uint16_t> holdX;  ///< holdout * features
    std::vector<std::uint8_t> holdY;   ///< holdout labels

    /** Pointer to training row `i`. */
    const std::uint16_t *
    trainRow(std::size_t i) const
    {
        return trainX.data() + i * spec.features;
    }

    /** Pointer to holdout row `i`. */
    const std::uint16_t *
    holdRow(std::size_t i) const
    {
        return holdX.data() + i * spec.features;
    }
};

/** Generate the dataset of a spec (pure function of the spec). */
Dataset makeDataset(const DatasetSpec &spec);

} // namespace printed::ml

#endif // PRINTED_ML_DATASET_HH
