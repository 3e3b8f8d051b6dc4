#include "tensor/prune.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.hpp"

#if STONNE_RNG_AVX512
// GCC 12's AVX-512 intrinsics self-initialise their "undefined" pass-
// through operands, which -Wall reports wherever they are inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

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

constexpr std::uint32_t kNanKeys = 0x7f800000u; // keys above are NaN
/** Candidate ranges at most this long end in nth_element. */
constexpr index_t kFinish = 48;

void
checkRank(index_t n, index_t k)
{
    fatalIf(k < 0 || k >= n, "rank ", k, " out of range for ", n,
            " values");
}

void
rejectNans(index_t nans, index_t n)
{
    fatalIf(nans > 0, "cannot prune by magnitude: ", nans, " of ", n,
            " values are NaN, which has no magnitude order");
}

/** Room for n keys and one 16-lane store past them, reused across
 *  calls: a model prunes one span per filter. */
std::uint32_t *
scratchKeys(index_t n)
{
    thread_local std::vector<std::uint32_t> keys;
    keys.resize(static_cast<std::size_t>(n) + 16);
    return keys.data();
}

/**
 * The k-th smallest of key[0, len), every key in [lo, hi], by a radix
 * descent. The answer lies in the key range [base, base + width), which
 * holds `in` of the keys; `below` keys lie under it. Each level counts
 * the keys under the range's midpoint (Ops::countBelow, one pass) and
 * keeps the half holding rank k. Once the range holds at most a quarter
 * of the buffer, Ops::compact moves its keys to the front and later
 * passes run over those only. A range of at most kFinish keys ends in
 * nth_element; a range one key wide is the answer. Every step is exact,
 * so the result is the full selection's.
 */
template <typename Ops>
std::uint32_t
descend(std::uint32_t *key, index_t len, index_t k, std::uint32_t lo,
        std::uint32_t hi)
{
    if (lo == hi)
        return lo;
    // Keys are at most 31 bits wide, so the width fits.
    std::uint32_t width = 2u << (std::bit_width(lo ^ hi) - 1);
    std::uint32_t base = lo & ~(width - 1);
    index_t in = len, below = 0;
    while (in > kFinish) {
        if (in <= len / 4) {
            len = Ops::compact(key, len, base, width);
            below = 0;
        }
        width /= 2;
        const index_t under = Ops::countBelow(key, len, base + width) - below;
        if (k < under) {
            in = under;
        } else {
            base += width;
            below += under;
            k -= under;
            in -= under;
        }
        if (width == 1)
            return base;
    }
    if (in < len)
        Ops::compact(key, len, base, width);
    std::nth_element(key, key + k, key + in);
    return key[k];
}

struct PortableOps {
    /** Four lanes at a time on the vector extension; keys and bound
     *  fit in 31 bits, so a signed compare orders them. */
    static index_t
    countBelow(const std::uint32_t *key, index_t len, std::uint32_t bound)
    {
        const auto b = static_cast<std::int32_t>(bound);
        const Int4 bs = {b, b, b, b};
        Int4 count = {};
        index_t i = 0;
        for (; i + 4 <= len; i += 4) {
            Int4 v;
            std::memcpy(&v, key + i, sizeof v);
            count -= v < bs;
        }
        index_t under = static_cast<index_t>(count[0]) + count[1] +
                        count[2] + count[3];
        for (; i < len; ++i)
            under += key[i] < bound;
        return under;
    }

    /** Branch-free: every key is written, the length advances past the
     *  kept ones. */
    static index_t
    compact(std::uint32_t *key, index_t len, std::uint32_t base,
            std::uint32_t width)
    {
        index_t kept = 0;
        for (index_t i = 0; i < len; ++i) {
            key[kept] = key[i];
            kept += key[i] - base < width;
        }
        return kept;
    }
};

} // namespace

float
kthSmallestMagnitudePortable(const float *data, index_t n, index_t k)
{
    checkRank(n, k);
    std::uint32_t *key = scratchKeys(n);
    std::uint32_t lo = ~0u, hi = 0;
    index_t nans = 0;
    for (index_t i = 0; i < n; ++i) {
        key[i] = magnitudeKey(data[i]);
        lo = std::min(lo, key[i]);
        hi = std::max(hi, key[i]);
        nans += key[i] > kNanKeys;
    }
    rejectNans(nans, n);
    return std::bit_cast<float>(descend<PortableOps>(key, n, k, lo, hi));
}

#if STONNE_RNG_AVX512

#define STONNE_AVX512 __attribute__((target("avx512f,popcnt")))

namespace {

using rng_kernels::lanes16;

inline int
bits(std::uint32_t key)
{
    return static_cast<int>(key);
}

struct Avx512Ops {
    /** A 16-lane compare per step, counted in per-lane accumulators. */
    STONNE_AVX512 static index_t
    countBelow(const std::uint32_t *key, index_t len, std::uint32_t bound)
    {
        const __m512i b = _mm512_set1_epi32(bits(bound));
        const __m512i one = _mm512_set1_epi32(1);
        __m512i acc0 = _mm512_setzero_si512(), acc1 = acc0;
        index_t i = 0;
        for (; i + 32 <= len; i += 32) {
            acc0 = _mm512_mask_add_epi32(
                acc0, _mm512_cmplt_epu32_mask(_mm512_loadu_si512(key + i), b),
                acc0, one);
            acc1 = _mm512_mask_add_epi32(
                acc1,
                _mm512_cmplt_epu32_mask(_mm512_loadu_si512(key + i + 16), b),
                acc1, one);
        }
        for (; i < len; i += 16) {
            const __mmask16 m = lanes16(len - i);
            acc0 = _mm512_mask_add_epi32(
                acc0,
                _mm512_mask_cmplt_epu32_mask(
                    m, _mm512_maskz_loadu_epi32(m, key + i), b),
                acc0, one);
        }
        return _mm512_reduce_add_epi32(_mm512_add_epi32(acc0, acc1));
    }

    /** vpcompressd per 16 keys. Each whole-register store lands at or
     *  before the block just loaded, and at most 15 lanes past len
     *  (scratchKeys leaves that room). */
    STONNE_AVX512 static index_t
    compact(std::uint32_t *key, index_t len, std::uint32_t base,
            std::uint32_t width)
    {
        const __m512i b = _mm512_set1_epi32(bits(base));
        const __m512i w = _mm512_set1_epi32(bits(width));
        index_t kept = 0;
        for (index_t i = 0; i < len; i += 16) {
            const __mmask16 m = lanes16(len - i);
            const __m512i v = _mm512_maskz_loadu_epi32(m, key + i);
            const __mmask16 keep = _mm512_mask_cmplt_epu32_mask(
                m, _mm512_sub_epi32(v, b), w);
            _mm512_storeu_si512(key + kept, _mm512_maskz_compress_epi32(keep, v));
            kept += std::popcount(unsigned{keep});
        }
        return kept;
    }
};

} // namespace

STONNE_AVX512 float
kthSmallestMagnitudeAvx512(const float *data, index_t n, index_t k)
{
    checkRank(n, k);
    std::uint32_t *key = scratchKeys(n);
    const __m512i abs_mask = _mm512_set1_epi32(0x7fffffff);
    const __m512i nan_keys = _mm512_set1_epi32(bits(kNanKeys));
    __m512i lo = _mm512_set1_epi32(-1), hi = _mm512_setzero_si512();
    __m512i nans = _mm512_setzero_si512();
    for (index_t i = 0; i < n; i += 16) {
        const __mmask16 m = lanes16(n - i);
        const __m512i v =
            _mm512_and_si512(_mm512_maskz_loadu_epi32(m, data + i), abs_mask);
        _mm512_mask_storeu_epi32(key + i, m, v);
        lo = _mm512_mask_min_epu32(lo, m, lo, v);
        hi = _mm512_mask_max_epu32(hi, m, hi, v);
        nans = _mm512_mask_add_epi32(
            nans, _mm512_mask_cmpgt_epu32_mask(m, v, nan_keys), nans,
            _mm512_set1_epi32(1));
    }
    rejectNans(_mm512_reduce_add_epi32(nans), n);
    return std::bit_cast<float>(descend<Avx512Ops>(
        key, n, k, _mm512_reduce_min_epu32(lo), _mm512_reduce_max_epu32(hi)));
}

#endif // STONNE_RNG_AVX512

float
kthSmallestMagnitude(const float *data, index_t n, index_t k)
{
#if STONNE_RNG_AVX512
    if (rng_kernels::avx512())
        return kthSmallestMagnitudeAvx512(data, n, k);
#endif
    return kthSmallestMagnitudePortable(data, n, k);
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

#if STONNE_RNG_AVX512

namespace {

/**
 * A first floor for a filter of n N(0, stddev) weights that keeps at most
 * `zeros` of them in its band: the |N(0, stddev)| quantile two binomial
 * standard deviations under zeros / n, by bisection on erf. 0 when that
 * quantile is not positive.
 */
float
floorGuess(float stddev, index_t zeros, index_t n)
{
    const double q = static_cast<double>(zeros) / static_cast<double>(n);
    const double p =
        q - 2.0 * std::sqrt(q * (1.0 - q) / static_cast<double>(n));
    if (!(p > 0.0))
        return 0.0f;
    double lo = 0.0, hi = 10.0;
    for (int i = 0; i < 40; ++i) {
        const double mid = (lo + hi) / 2;
        (std::erf(mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
    }
    return static_cast<float>(lo * static_cast<double>(stddev));
}

} // namespace

#endif

SynthesisCounts
synthesizePrunedWeights(Tensor &t, Rng &rng, float stddev, double sparsity,
                        double jitter)
{
    SynthesisCounts counts;
    if (sparsity <= 0.0) {
        t.fillNormal(rng, 0.0f, stddev);
        counts.exact = t.size();
        return counts;
    }
#if STONNE_RNG_AVX512
    if (rng_kernels::avx512() && t.rank() >= 1 && t.dim(0) > 0) {
        const index_t filters = t.dim(0);
        const index_t n = t.size() / filters;
        // The fewest zeros any jitter draw asks of a filter: the draw is
        // at least float(-jitter), and pruneSpan's count only grows with
        // the sparsity. One less, to spare.
        const double least = std::clamp(
            sparsity + static_cast<double>(static_cast<float>(-jitter)), 0.0,
            0.98);
        const index_t zeros = least > 0.0
            ? std::llround(least * static_cast<double>(n)) - 1
            : -1;
        const float floor = zeros > 0 ? floorGuess(stddev, zeros, n) : 0.0f;
        float *data = t.data();
        for (index_t k = 0; k < filters; ++k) {
            const rng_kernels::PrunableFill fill =
                rng_kernels::fillNormalPrunableAvx512(
                    rng.engine(), data + k * n, static_cast<std::size_t>(n),
                    stddev,
                    static_cast<std::size_t>(std::max<index_t>(zeros, 0)),
                    floor);
            counts.exact += static_cast<index_t>(fill.exact);
            if (floor > 0.0f) {
                if (fill.floor == floor)
                    ++counts.first_floor;
                else if (fill.floor > 0.0f)
                    ++counts.lowered_floor;
                else
                    ++counts.dropped_floor;
            }
        }
        pruneFiltersWithJitter(t, sparsity, jitter, rng);
        return counts;
    }
#endif
    t.fillNormal(rng, 0.0f, stddev);
    pruneFiltersWithJitter(t, sparsity, jitter, rng);
    counts.exact = t.size();
    return counts;
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
