#include "dataset.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace printed::ml
{

namespace
{

/** Stream tags keeping centroid/train/holdout draws independent. */
constexpr std::uint64_t kCentroidTag = 0x63656e74; // "cent"
constexpr std::uint64_t kTrainTag = 0x7472616e;    // "tran"
constexpr std::uint64_t kHoldTag = 0x686f6c64;     // "hold"

std::uint16_t
clampToBits(std::int64_t v, unsigned bits)
{
    const std::int64_t hi = (std::int64_t(1) << bits) - 1;
    return std::uint16_t(std::clamp<std::int64_t>(v, 0, hi));
}

/**
 * One "blobs" sample: the class centroid plus uniform noise in
 * [-range/8, +range/8], clamped to the feature range. The per-sample
 * Rng is seeded from the sample index, never from any loop or thread
 * structure, so generation order is irrelevant.
 */
void
blobsSample(const DatasetSpec &spec,
            const std::vector<std::uint16_t> &centroids,
            std::uint64_t tag, std::size_t index, std::uint16_t *x,
            std::uint8_t &y)
{
    const unsigned cls = unsigned(index % spec.classes);
    Rng rng(mixSeed(mixSeed(spec.seed, tag), index));
    const std::int64_t spread =
        std::max<std::int64_t>(1, (std::int64_t(1) << spec.bits) / 8);
    for (unsigned f = 0; f < spec.features; ++f) {
        const std::int64_t noise =
            std::int64_t(rng.below(std::uint64_t(2 * spread + 1))) -
            spread;
        x[f] = clampToBits(
            std::int64_t(centroids[cls * spec.features + f]) + noise,
            spec.bits);
    }
    y = std::uint8_t(cls);
}

/** One "xor" sample: uniform features, label = msb(f0) ^ msb(f1). */
void
xorSample(const DatasetSpec &spec, std::uint64_t tag,
          std::size_t index, std::uint16_t *x, std::uint8_t &y)
{
    Rng rng(mixSeed(mixSeed(spec.seed, tag), index));
    for (unsigned f = 0; f < spec.features; ++f)
        x[f] = std::uint16_t(rng.bits(spec.bits));
    const unsigned msb = spec.bits - 1;
    y = std::uint8_t(((x[0] >> msb) ^ (x[1] >> msb)) & 1);
}

} // anonymous namespace

void
DatasetSpec::check() const
{
    if (kind != "blobs" && kind != "xor")
        fatal("dataset kind must be \"blobs\" or \"xor\", not \"" + kind +
              "\"");
    fatalIf(features < 1 || features > 16,
            "dataset features must be in [1, 16]");
    fatalIf(classes < 2 || classes > 10,
            "dataset classes must be in [2, 10]");
    fatalIf(bits < 2 || bits > 12,
            "dataset bits must be in [2, 12]");
    fatalIf(train < 8 || train > 4096,
            "dataset train size must be in [8, 4096]");
    fatalIf(holdout < 8 || holdout > 4096,
            "dataset holdout size must be in [8, 4096]");
    fatalIf(kind == "xor" && classes != 2,
            "dataset kind \"xor\" requires classes == 2");
    fatalIf(kind == "xor" && features < 2,
            "dataset kind \"xor\" requires features >= 2");
}

Dataset
makeDataset(const DatasetSpec &spec)
{
    spec.check();
    Dataset data;
    data.spec = spec;
    data.trainX.resize(std::size_t(spec.train) * spec.features);
    data.trainY.resize(spec.train);
    data.holdX.resize(std::size_t(spec.holdout) * spec.features);
    data.holdY.resize(spec.holdout);

    std::vector<std::uint16_t> centroids;
    if (spec.kind == "blobs") {
        centroids.resize(std::size_t(spec.classes) * spec.features);
        for (unsigned c = 0; c < spec.classes; ++c) {
            Rng rng(mixSeed(mixSeed(spec.seed, kCentroidTag), c));
            for (unsigned f = 0; f < spec.features; ++f)
                centroids[c * spec.features + f] =
                    std::uint16_t(rng.bits(spec.bits));
        }
        for (std::size_t i = 0; i < spec.train; ++i)
            blobsSample(spec, centroids, kTrainTag, i,
                        data.trainX.data() + i * spec.features,
                        data.trainY[i]);
        for (std::size_t i = 0; i < spec.holdout; ++i)
            blobsSample(spec, centroids, kHoldTag, i,
                        data.holdX.data() + i * spec.features,
                        data.holdY[i]);
    } else {
        for (std::size_t i = 0; i < spec.train; ++i)
            xorSample(spec, kTrainTag, i,
                      data.trainX.data() + i * spec.features,
                      data.trainY[i]);
        for (std::size_t i = 0; i < spec.holdout; ++i)
            xorSample(spec, kHoldTag, i,
                      data.holdX.data() + i * spec.features,
                      data.holdY[i]);
    }
    return data;
}

} // namespace printed::ml
