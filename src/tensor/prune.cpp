#include "tensor/prune.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.hpp"

namespace stonne {

namespace {

/** Bit pattern of |x|. For non-NaN floats these integers order as the
 *  magnitudes do, with both zeros at 0 and denormals below normals. */
std::uint32_t
magnitudeKey(float x)
{
    return std::bit_cast<std::uint32_t>(x) & 0x7fffffffu;
}

/** Four float lanes in one SIMD register (a GCC/Clang vector
 *  extension) and what a comparison of them yields: -1 in a true lane,
 *  0 otherwise. */
using Float4 = float __attribute__((vector_size(16)));
using Int4 = std::int32_t __attribute__((vector_size(16)));

/**
 * Zeroes the v[i] with |v[i]| < threshold and returns how many: the
 * scalar `std::abs(v[i]) < threshold ? 0.0f : v[i]`, four lanes at a
 * time. |x| clears the sign bit, as std::abs does, and a zeroed lane
 * becomes +0.0f.
 */
index_t
zeroBelow(float *v, index_t n, float threshold)
{
    const Float4 t = {threshold, threshold, threshold, threshold};
    Int4 count = {};
    index_t i = 0;
    for (; i + 4 <= n; i += 4) {
        Int4 bits;
        std::memcpy(&bits, v + i, sizeof bits);
        const Int4 below = reinterpret_cast<Float4>(bits & 0x7fffffff) < t;
        bits &= ~below;
        std::memcpy(v + i, &bits, sizeof bits);
        count -= below;
    }
    index_t zeroed = static_cast<index_t>(count[0]) + count[1] + count[2] +
                     count[3];
    for (; i < n; ++i) {
        const bool below = std::abs(v[i]) < threshold;
        v[i] = below ? 0.0f : v[i];
        zeroed += below;
    }
    return zeroed;
}

} // namespace

/*
 * One pass writes the magnitude keys, histograms their top 11 bits
 * (exponent plus three mantissa bits, so a bucket spans an eighth of an
 * octave) and notes the smallest key; the walk to the bucket holding
 * rank k starts at the smallest key's bucket, not at bucket 0 (weights
 * near 0.05 would otherwise walk ~1,000 empty buckets per span). That
 * bucket is compacted to the front and nth_element runs on that bracket
 * only. For synthetic weights the bracket is a few percent of the span.
 * The selected key is exact, so the result equals the full selection's.
 */
float
kthSmallestMagnitude(const float *data, index_t n, index_t k)
{
    constexpr std::uint32_t kNanKeys = 0x7f800000u; // keys above are NaN
    constexpr int kBucketShift = 20;                // 31-bit key, top 11
    // Below this size clearing the histogram costs more than a full
    // nth_element over the keys.
    constexpr index_t kDirect = 64;

    fatalIf(k < 0 || k >= n, "rank ", k, " out of range for ", n,
            " values");
    // Scratch reused across calls: a model prunes one span per filter.
    thread_local std::vector<std::uint32_t> keys;
    keys.resize(static_cast<std::size_t>(n));
    std::uint32_t *key = keys.data();
    index_t nans = 0;
    index_t lo = 0;
    index_t len = n;
    if (n <= kDirect) {
        for (index_t i = 0; i < n; ++i) {
            key[i] = magnitudeKey(data[i]);
            nans += key[i] > kNanKeys;
        }
    } else {
        std::array<std::uint32_t, (1u << (31 - kBucketShift))> hist{};
        std::uint32_t min_key = ~0u;
        for (index_t i = 0; i < n; ++i) {
            key[i] = magnitudeKey(data[i]);
            nans += key[i] > kNanKeys;
            min_key = std::min(min_key, key[i]);
            ++hist[key[i] >> kBucketShift];
        }
        std::uint32_t b = min_key >> kBucketShift;
        while (lo + hist[b] <= k)
            lo += hist[b++];
        // Branch-free compaction of bucket b's keys to the front.
        len = 0;
        for (index_t i = 0; i < n; ++i) {
            key[len] = key[i];
            len += (key[i] >> kBucketShift) == b;
        }
    }
    fatalIf(nans > 0, "cannot prune by magnitude: ", nans, " of ", n,
            " values are NaN, which has no magnitude order");
    std::nth_element(key, key + (k - lo), key + len);
    return std::bit_cast<float>(key[k - lo]);
}

namespace {

/** Prune a contiguous span in place to the given sparsity. */
void
pruneSpan(float *data, index_t n, double sparsity)
{
    if (n == 0 || sparsity <= 0.0)
        return;
    fatalIf(sparsity >= 1.0, "sparsity must be below 1.0, got ", sparsity);

    const auto zero_count =
        static_cast<index_t>(std::llround(sparsity * static_cast<double>(n)));
    if (zero_count <= 0)
        return;
    if (zero_count >= n) {
        for (index_t i = 0; i < n; ++i)
            data[i] = 0.0f;
        return;
    }

    const float threshold = kthSmallestMagnitude(data, n, zero_count);

    // Zero strictly-below-threshold first, then zero ties until the exact
    // count is reached so the target ratio is hit deterministically.
    index_t zeroed = zeroBelow(data, n, threshold);
    for (index_t i = 0; i < n && zeroed < zero_count; ++i) {
        if (data[i] != 0.0f && std::abs(data[i]) == threshold) {
            data[i] = 0.0f;
            ++zeroed;
        }
    }
}

} // namespace

void
pruneMagnitude(Tensor &t, double sparsity)
{
    pruneSpan(t.data(), t.size(), sparsity);
}

void
pruneFiltersWithJitter(Tensor &t, double sparsity, double jitter, Rng &rng)
{
    fatalIf(t.rank() < 1, "filter pruning needs at least rank 1");
    const index_t filters = t.dim(0);
    const index_t per_filter = filters > 0 ? t.size() / filters : 0;
    float *data = t.data();
    for (index_t k = 0; k < filters; ++k) {
        double s = sparsity +
            rng.uniform(static_cast<float>(-jitter),
                        static_cast<float>(jitter));
        s = std::clamp(s, 0.0, 0.98);
        pruneSpan(data + k * per_filter, per_filter, s);
    }
}

void
pruneRandom(Tensor &t, double sparsity, Rng &rng)
{
    fatalIf(sparsity < 0.0 || sparsity >= 1.0,
            "sparsity must lie in [0, 1), got ", sparsity);
    float *data = t.data();
    for (index_t i = 0; i < t.size(); ++i)
        if (rng.chance(sparsity))
            data[i] = 0.0f;
}

} // namespace stonne
