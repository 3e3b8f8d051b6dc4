#include "common/rng_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#if STONNE_RNG_AVX512
// GCC 12's AVX-512 intrinsics self-initialise their "undefined" pass-
// through operands (`__m512i __Y = __Y;`), which -Wall reports at the
// header lines wherever those intrinsics are inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace stonne {

namespace rng_kernels {

bool
avx512()
{
#if STONNE_RNG_AVX512
    static const bool supported = __builtin_cpu_supports("avx512f") &&
                                  __builtin_cpu_supports("avx512dq") &&
                                  __builtin_cpu_supports("avx512vl");
    return supported;
#else
    return false;
#endif
}

void
fillNormalPortable(Mt19937_64 &g, float *out, std::size_t n, float mean,
                   float stddev)
{
    constexpr std::size_t kChunk = 256;
    float ys[kChunk], r2s[kChunk];
    for (std::size_t base = 0; base < n; base += kChunk) {
        const std::size_t m = std::min(kChunk, n - base);
        for (std::size_t i = 0; i < m; ++i)
            polarCandidate(g, ys[i], r2s[i]);
        for (std::size_t i = 0; i < m; ++i)
            out[base + i] = polarValue(ys[i], r2s[i]) * stddev + mean;
    }
}

void
fillUniformPortable(Mt19937_64 &g, float *out, std::size_t n, float lo,
                    float hi)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = canonicalFloat(g()) * (hi - lo) + lo;
}

#if STONNE_RNG_AVX512

#define STONNE_AVX512 __attribute__((target("avx512f,avx512dq,avx512vl")))

namespace {

using Word = std::uint64_t;
constexpr std::size_t kN = Mt19937_64::kStateSize;
constexpr std::size_t kM = Mt19937_64::kShift;

/** The first count (<= 8) lanes. */
inline __mmask8
lanes(std::size_t count)
{
    return static_cast<__mmask8>((1u << count) - 1);
}

inline long long
bits(Word w)
{
    return static_cast<long long>(w);
}

/** x[k + i] = Mt19937_64::mix(x[k + i], lo[i], far[i]) for i < count. */
STONNE_AVX512 inline void
mixLanes(Word *x, std::size_t k, std::size_t count, const Word *lo,
         const Word *far)
{
    const __mmask8 m = lanes(count);
    const __m512i y = _mm512_or_si512(
        _mm512_and_si512(_mm512_maskz_loadu_epi64(m, x + k),
                         _mm512_set1_epi64(bits(Mt19937_64::kUpper))),
        _mm512_and_si512(_mm512_maskz_loadu_epi64(m, lo),
                         _mm512_set1_epi64(bits(Mt19937_64::kLower))));
    const __m512i mag = _mm512_maskz_mov_epi64(
        _mm512_test_epi64_mask(y, _mm512_set1_epi64(1)),
        _mm512_set1_epi64(bits(Mt19937_64::kMatrixA)));
    _mm512_mask_storeu_epi64(
        x + k, m,
        _mm512_xor_si512(_mm512_xor_si512(_mm512_maskz_loadu_epi64(m, far),
                                          _mm512_srli_epi64(y, 1)),
                         mag));
}

/** std::generate_canonical<float, 24> of 8 words: float(w) * 2^-64 with
 *  vcvtuqq2ps, clamped below 1; canonicalFloat lane by lane. */
STONNE_AVX512 inline __m256
canonical8(__m512i w)
{
    const __m256 f =
        _mm256_mul_ps(_mm512_cvtepu64_ps(w), _mm256_set1_ps(0x1p-64f));
    return _mm256_min_ps(f, _mm256_set1_ps(0x1.fffffep-1f));
}

/** polarTrial's candidate float(2.0f * u - 1.0) of 8 words. */
STONNE_AVX512 inline __m256
candidate8(__m512i w)
{
    const __m256 twice = _mm256_mul_ps(_mm256_set1_ps(2.0f), canonical8(w));
    return _mm512_cvtpd_ps(
        _mm512_sub_pd(_mm512_cvtps_pd(twice), _mm512_set1_pd(1.0)));
}

/** out[i] = polarValue(ys[i], r2s[i]) * stddev + mean for i < m. logs
 *  has room for m floats. */
STONNE_AVX512 void
finishNormals(const float *ys, const float *r2s, float *logs, std::size_t m,
              float *out, float mean, float stddev)
{
    for (std::size_t i = 0; i < m; ++i)
        logs[i] = std::log(r2s[i]); // the C library's logf (rng.hpp)
    for (std::size_t i = 0; i < m; i += 16) {
        const __mmask16 k = lanes16(m - i);
        const __m512 r2 =
            _mm512_mask_loadu_ps(_mm512_set1_ps(1.0f), k, r2s + i);
        const __m512 mult = _mm512_sqrt_ps(_mm512_div_ps(
            _mm512_mul_ps(_mm512_set1_ps(-2.0f),
                          _mm512_maskz_loadu_ps(k, logs + i)),
            r2));
        const __m512 v = _mm512_mul_ps(_mm512_maskz_loadu_ps(k, ys + i), mult);
        _mm512_mask_storeu_ps(
            out + i, k,
            _mm512_add_ps(_mm512_mul_ps(v, _mm512_set1_ps(stddev)),
                          _mm512_set1_ps(mean)));
    }
}

/**
 * polarValue's multiplier sqrt(-2 log(r2) / r2) of 16 candidates, to
 * within kApproxBound of the float value for r2 in [kApproxLeast, 1];
 * NaN for smaller r2. With r2 = 2^e m, m in [0.75, 1.5), log(m) is
 * 2 atanh(s) for s = (m - 1) / (m + 1) in [-1/7, 1/5], taken as
 * 2s (1 + s^2/3 + s^4/5); the reciprocals are rcp14 and rsqrt14 (each
 * within 2^-14). The bound is checked on every float in (0, 1] by
 * bench_sim_speed and on a stride of them by the tests.
 */
STONNE_AVX512 inline __m512
approxMultiplier(__m512 r2)
{
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512 m =
        _mm512_getmant_ps(r2, _MM_MANT_NORM_p75_1p5, _MM_MANT_SIGN_zero);
    // getexp is the exponent of the [1, 2) mantissa: one less where
    // getmant halved it below 1.
    __m512 e = _mm512_getexp_ps(r2);
    e = _mm512_mask_add_ps(e, _mm512_cmp_ps_mask(m, one, _CMP_LT_OQ), e,
                           one);
    const __m512 s = _mm512_mul_ps(_mm512_sub_ps(m, one),
                                   _mm512_rcp14_ps(_mm512_add_ps(m, one)));
    const __m512 s2 = _mm512_mul_ps(s, s);
    const __m512 series = _mm512_fmadd_ps(
        s2,
        _mm512_fmadd_ps(s2, _mm512_set1_ps(1.0f / 5), _mm512_set1_ps(1.0f / 3)),
        one);
    const __m512 log_r2 =
        _mm512_fmadd_ps(e, _mm512_set1_ps(0.693147181f),
                        _mm512_mul_ps(_mm512_add_ps(s, s), series));
    const __m512 t = _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(-2.0f), log_r2),
                                   _mm512_rcp14_ps(r2));
    // t is 0 at r2 = 1, where rsqrt14 is inf.
    const __m512 mult = _mm512_maskz_mul_ps(
        _mm512_cmp_ps_mask(t, _mm512_setzero_ps(), _CMP_GT_OQ), t,
        _mm512_rsqrt14_ps(t));
    return _mm512_mask_mov_ps(
        mult,
        _mm512_cmp_ps_mask(r2, _mm512_set1_ps(kApproxLeast), _CMP_LT_OQ),
        _mm512_set1_ps(std::numeric_limits<float>::quiet_NaN()));
}

/**
 * Whether fillNormalPrunableAvx512 may use the floor: positive and
 * finite with its band, and large enough that the rounding of a
 * magnitude scaled by stddev to a denormal, at most 2^-147 (1 + stddev)
 * in absolute terms, stays within 2^-10 of it.
 */
inline bool
usableFloor(float floor, float stddev)
{
    return stddev > 0.0f && std::isfinite(stddev) &&
        std::isfinite(floor * (1.0f + kPruneBand)) &&
        static_cast<double>(floor) * 0x1p-10 >=
            0x1p-147 * (1.0 + static_cast<double>(stddev));
}

/** How many of mags[0, n) are under bound or NaN (no known bound). */
STONNE_AVX512 inline std::size_t
countUnder(const float *mags, std::size_t n, float bound)
{
    const __m512 b = _mm512_set1_ps(bound);
    std::size_t under = 0;
    for (std::size_t i = 0; i < n; i += 16) {
        const __mmask16 k = lanes16(n - i);
        under += static_cast<std::size_t>(std::popcount(unsigned{
            _mm512_mask_cmp_ps_mask(k, _mm512_maskz_loadu_ps(k, mags + i), b,
                                    _CMP_NGE_UQ)}));
    }
    return under;
}

/** Per-filter staging of fillNormalPrunableAvx512, reused across calls:
 *  room for n values and one 16-lane store past them. */
struct Staging {
    std::vector<float> ys, r2s, mags, exact;
};

Staging &
staging(std::size_t n)
{
    thread_local Staging st;
    for (std::vector<float> *v : {&st.ys, &st.r2s, &st.mags, &st.exact})
        v->resize(n + 16);
    return st;
}

} // namespace

STONNE_AVX512 void
twistAvx512(Word *x, Word *out)
{
    // Mt19937_64::twist's three loops, 8 words at a time. A word reads
    // its successor before that is rewritten and a partner kM words away
    // that is already final (second loop) or not yet touched (first),
    // so 8-word steps give the scalar loop's values.
    for (std::size_t k = 0; k < kN - kM; k += 8)
        mixLanes(x, k, std::min<std::size_t>(8, kN - kM - k), x + k + 1,
                 x + k + kM);
    for (std::size_t k = kN - kM; k < kN - 1; k += 8)
        mixLanes(x, k, std::min<std::size_t>(8, kN - 1 - k), x + k + 1,
                 x + k - kM);
    mixLanes(x, kN - 1, 1, x, x + kM - 1);

    for (std::size_t i = 0; i < kN; i += 8) {
        __m512i z = _mm512_loadu_si512(x + i);
        z = _mm512_xor_si512(
            z, _mm512_and_si512(_mm512_srli_epi64(z, Mt19937_64::kTemperU),
                                _mm512_set1_epi64(
                                    bits(Mt19937_64::kTemperD))));
        z = _mm512_xor_si512(
            z, _mm512_and_si512(_mm512_slli_epi64(z, Mt19937_64::kTemperS),
                                _mm512_set1_epi64(
                                    bits(Mt19937_64::kTemperB))));
        z = _mm512_xor_si512(
            z, _mm512_and_si512(_mm512_slli_epi64(z, Mt19937_64::kTemperT),
                                _mm512_set1_epi64(
                                    bits(Mt19937_64::kTemperC))));
        z = _mm512_xor_si512(z, _mm512_srli_epi64(z, Mt19937_64::kTemperL));
        _mm512_storeu_si512(out + i, z);
    }
}

STONNE_AVX512 std::size_t
polarCandidatesAvx512(const Word *w, std::size_t pairs, float *ys,
                      float *r2s)
{
    const __m512i xs = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
    const __m512i yw = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
    std::size_t m = 0;
    for (std::size_t i = 0; i < pairs; i += 8) {
        const std::size_t c = std::min<std::size_t>(8, pairs - i);
        const __m512i lo =
            _mm512_maskz_loadu_epi64(lanes(std::min<std::size_t>(8, 2 * c)),
                                     w + 2 * i);
        const __m512i hi = c > 4
            ? _mm512_maskz_loadu_epi64(lanes(2 * c - 8), w + 2 * i + 8)
            : _mm512_setzero_si512();
        const __m256 x = candidate8(_mm512_permutex2var_epi64(lo, xs, hi));
        const __m256 y = candidate8(_mm512_permutex2var_epi64(lo, yw, hi));
        // Two multiplies and an add, each rounded, as polarTrial; never
        // fused into an FMA (the library builds with -ffp-contract=off).
        const __m256 r2 =
            _mm256_add_ps(_mm256_mul_ps(x, x), _mm256_mul_ps(y, y));
        const __mmask8 keep =
            _mm256_cmp_ps_mask(r2, _mm256_set1_ps(1.0f), _CMP_LE_OQ) &
            _mm256_cmp_ps_mask(r2, _mm256_setzero_ps(), _CMP_NEQ_OQ) &
            lanes(c);
        _mm256_storeu_ps(ys + m, _mm256_maskz_compress_ps(keep, y));
        _mm256_storeu_ps(r2s + m, _mm256_maskz_compress_ps(keep, r2));
        m += static_cast<std::size_t>(std::popcount(unsigned{keep}));
    }
    return m;
}

STONNE_AVX512 void
polarDrawsAvx512(Mt19937_64 &g, float *ys, float *r2s, std::size_t n)
{
    std::size_t done = 0;
    while (done < n) {
        const std::size_t avail = g.available();
        if (avail == 0) {
            g.refill(twistAvx512);
        } else if (avail == 1) {
            // The pair straddles the block boundary.
            const Word wx = g.block()[0];
            g.consume(1);
            g.refill(twistAvx512);
            const Word wy = g.block()[0];
            g.consume(1);
            done += polarTrial(wx, wy, ys[done], r2s[done]);
        } else {
            // Each pair yields at most one candidate, so taking no more
            // pairs than candidates still wanted never draws past the
            // last one.
            const std::size_t pairs = std::min(avail / 2, n - done);
            done += polarCandidatesAvx512(g.block(), pairs, ys + done,
                                          r2s + done);
            g.consume(2 * pairs);
        }
    }
}

STONNE_AVX512 void
fillNormalAvx512(Mt19937_64 &g, float *out, std::size_t n, float mean,
                 float stddev)
{
    constexpr std::size_t kChunk = 256;
    alignas(64) float ys[kChunk + 8], r2s[kChunk + 8], logs[kChunk];
    for (std::size_t done = 0; done < n; done += kChunk) {
        const std::size_t m = std::min(kChunk, n - done);
        polarDrawsAvx512(g, ys, r2s, m);
        finishNormals(ys, r2s, logs, m, out + done, mean, stddev);
    }
}

STONNE_AVX512 void
approxMultipliersAvx512(const float *r2s, std::size_t n, float *out)
{
    for (std::size_t i = 0; i < n; i += 16) {
        const __mmask16 k = lanes16(n - i);
        _mm512_mask_storeu_ps(
            out + i, k,
            approxMultiplier(
                _mm512_mask_loadu_ps(_mm512_set1_ps(1.0f), k, r2s + i)));
    }
}

STONNE_AVX512 PrunableFill
fillNormalPrunableAvx512(Mt19937_64 &g, float *out, std::size_t n,
                         float stddev, std::size_t zeros, float floor)
{
    Staging &st = staging(n);
    float *ys = st.ys.data(), *r2s = st.r2s.data(), *mags = st.mags.data(),
          *exact = st.exact.data();
    polarDrawsAvx512(g, ys, r2s, n);
    if (!usableFloor(floor, stddev))
        floor = 0.0f;
    if (floor > 0.0f) {
        const __m512 scale = _mm512_set1_ps(stddev);
        for (std::size_t i = 0; i < n; i += 16) {
            const __mmask16 k = lanes16(n - i);
            const __m512 r2 =
                _mm512_mask_loadu_ps(_mm512_set1_ps(1.0f), k, r2s + i);
            const __m512 y = _mm512_abs_ps(_mm512_maskz_loadu_ps(k, ys + i));
            _mm512_mask_storeu_ps(
                mags + i, k,
                _mm512_mul_ps(_mm512_mul_ps(y, approxMultiplier(r2)), scale));
        }
    }
    // A floor whose band holds more than `zeros` magnitudes is lowered
    // once, then dropped (DESIGN §15 counts how often each happens).
    for (bool lowered = false;
         floor > 0.0f && countUnder(mags, n, floor * (1.0f + kPruneBand)) >
                             zeros;
         lowered = true)
        floor = lowered ? 0.0f : floor * 0.875f;
    if (!usableFloor(floor, stddev)) {
        finishNormals(ys, r2s, exact, n, out, 0.0f, stddev);
        return {n, 0.0f};
    }

    // Lanes under lo take their signed approximation now; the others'
    // candidates move to the front of ys and r2s, in order (each
    // whole-register store lands at or before the block just loaded).
    const __m512 lo = _mm512_set1_ps(floor * (1.0f - kPruneBand));
    const __m512 sign = _mm512_set1_ps(-0.0f);
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; i += 16) {
        const __mmask16 k = lanes16(n - i);
        const __m512 y = _mm512_maskz_loadu_ps(k, ys + i);
        const __m512 a = _mm512_maskz_loadu_ps(k, mags + i);
        const __mmask16 below = _mm512_mask_cmp_ps_mask(k, a, lo, _CMP_LT_OQ);
        const __mmask16 keep = k & ~below;
        _mm512_mask_storeu_ps(out + i, below,
                              _mm512_or_ps(a, _mm512_and_ps(y, sign)));
        _mm512_storeu_ps(ys + m, _mm512_maskz_compress_ps(keep, y));
        _mm512_storeu_ps(r2s + m,
                         _mm512_maskz_compress_ps(
                             keep, _mm512_maskz_loadu_ps(k, r2s + i)));
        m += static_cast<std::size_t>(std::popcount(unsigned{keep}));
    }
    // The exact values, as fillNormal computes them, go back to the
    // other lanes in order.
    finishNormals(ys, r2s, exact, m, exact, 0.0f, stddev);
    std::size_t pos = 0;
    for (std::size_t i = 0; i < n; i += 16) {
        const __mmask16 k = lanes16(n - i);
        const __mmask16 keep =
            k & ~_mm512_mask_cmp_ps_mask(k, _mm512_maskz_loadu_ps(k, mags + i),
                                         lo, _CMP_LT_OQ);
        _mm512_mask_storeu_ps(out + i, keep,
                              _mm512_maskz_expandloadu_ps(keep, exact + pos));
        pos += static_cast<std::size_t>(std::popcount(unsigned{keep}));
    }
    return {m, floor};
}

STONNE_AVX512 void
fillUniformAvx512(Mt19937_64 &g, float *out, std::size_t n, float lo,
                  float hi)
{
    const __m256 span = _mm256_set1_ps(hi - lo);
    const __m256 base = _mm256_set1_ps(lo);
    std::size_t done = 0;
    while (done < n) {
        if (g.available() == 0)
            g.refill(twistAvx512);
        const std::size_t k = std::min(g.available(), n - done);
        const Word *w = g.block();
        for (std::size_t i = 0; i < k; i += 8) {
            const __mmask8 m = lanes(std::min<std::size_t>(8, k - i));
            const __m256 u = canonical8(_mm512_maskz_loadu_epi64(m, w + i));
            _mm256_mask_storeu_ps(out + done + i, m,
                                  _mm256_add_ps(_mm256_mul_ps(u, span), base));
        }
        g.consume(k);
        done += k;
    }
}

#endif // STONNE_RNG_AVX512

} // namespace rng_kernels

void
Rng::fillNormal(float *out, std::size_t n, float mean, float stddev)
{
#if STONNE_RNG_AVX512
    if (rng_kernels::avx512())
        return rng_kernels::fillNormalAvx512(gen_, out, n, mean, stddev);
#endif
    rng_kernels::fillNormalPortable(gen_, out, n, mean, stddev);
}

void
Rng::fillUniform(float *out, std::size_t n, float lo, float hi)
{
#if STONNE_RNG_AVX512
    if (rng_kernels::avx512())
        return rng_kernels::fillUniformAvx512(gen_, out, n, lo, hi);
#endif
    rng_kernels::fillUniformPortable(gen_, out, n, lo, hi);
}

} // namespace stonne
