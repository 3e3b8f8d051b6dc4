#include "tensor/kernels.hpp"

#include <cstdint>
#include <cstring>

#if STONNE_RNG_AVX512
// GCC 12's AVX-512 intrinsics self-initialise their "undefined" pass-
// through operands, which -Wall reports wherever they are inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace stonne::kernels {

namespace {

/** Four float lanes in one SIMD register (a GCC/Clang vector
 *  extension); its arithmetic is plain IEEE single precision per lane. */
using Float4 = float __attribute__((vector_size(16)));
/** What a Float4 comparison yields: -1 in a true lane, 0 otherwise. */
using Int4 = std::int32_t __attribute__((vector_size(16)));

inline Float4
load(const float *p)
{
    Float4 x;
    std::memcpy(&x, p, sizeof x);
    return x;
}

inline void
store(float *p, Float4 x)
{
    std::memcpy(p, &x, sizeof x);
}

/**
 * Columns [0, 4 kVecs) of sparseRowTimesPanel, one Float4 accumulator per
 * four columns. Each lane is its own chain from +0 in list order, so the
 * block changes no output's rounding; kept in registers, the chains
 * cost one B load per term and one store per output at the end.
 */
template <index_t kVecs>
inline void
rowBlock(float *crow, const index_t *cols, const float *vals, index_t nnz,
         const float *b, index_t ld)
{
    Float4 acc[kVecs] = {};
    for (index_t p = 0; p < nnz; ++p) {
        const float a = vals[p];
        const float *brow = b + cols[p] * ld;
#pragma GCC unroll 8
        for (index_t v = 0; v < kVecs; ++v)
            acc[v] += a * load(brow + 4 * v);
    }
#pragma GCC unroll 8
    for (index_t v = 0; v < kVecs; ++v)
        store(crow + 4 * v, acc[v]);
}

} // namespace

void
sparseRowTimesPanel(float *crow, index_t nj, const index_t *cols,
                    const float *vals, index_t nnz, const float *b,
                    index_t ld)
{
    index_t j = 0;
    for (; j + kRowBlockCols <= nj; j += kRowBlockCols)
        rowBlock<kRowBlockCols / 4>(crow + j, cols, vals, nnz, b + j, ld);
    if (j + 16 <= nj) {
        rowBlock<4>(crow + j, cols, vals, nnz, b + j, ld);
        j += 16;
    }
    if (j + 8 <= nj) {
        rowBlock<2>(crow + j, cols, vals, nnz, b + j, ld);
        j += 8;
    }
    if (j + 4 <= nj) {
        rowBlock<1>(crow + j, cols, vals, nnz, b + j, ld);
        j += 4;
    }
    for (; j < nj; ++j) {
        float acc = 0.0f;
        for (index_t p = 0; p < nnz; ++p)
            acc += vals[p] * b[cols[p] * ld + j];
        crow[j] = acc;
    }
}

void
addScalar(float *c, float a, index_t n)
{
    index_t j = 0;
    for (; j + 8 <= n; j += 8) {
        store(c + j, load(c + j) + a);
        store(c + j + 4, load(c + j + 4) + a);
    }
    if (j + 4 <= n) {
        store(c + j, load(c + j) + a);
        j += 4;
    }
    for (; j < n; ++j)
        c[j] += a;
}

index_t
countNonZeros(const float *v, index_t n)
{
    // Each lane subtracts its -1 per non-zero; a lane sees at most n / 4
    // values, so 32 bits hold any row.
    Int4 acc = {};
    index_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc -= load(v + i) != Float4{};
    index_t count = static_cast<index_t>(acc[0]) + acc[1] + acc[2] + acc[3];
    for (; i < n; ++i)
        count += v[i] != 0.0f;
    return count;
}

index_t
compressNonZeros(const float *v, index_t n, index_t base, index_t *cols,
                 float *vals)
{
#if STONNE_RNG_AVX512
    if (rng_kernels::avx512())
        return compressNonZerosAvx512(v, n, base, cols, vals);
#endif
    return compressNonZerosPortable(v, n, base, cols, vals);
}

index_t
compressNonZerosPortable(const float *v, index_t n, index_t base,
                         index_t *cols, float *vals)
{
    // Every element is written and the length only advances past the
    // kept ones, so the loop has no branch to mispredict. With the
    // trailing zeros cut off first, each write lands at or before the
    // last kept slot.
    while (n > 0 && !(v[n - 1] != 0.0f))
        --n;
    index_t len = 0;
    for (index_t i = 0; i < n; ++i) {
        cols[len] = base + i;
        vals[len] = v[i];
        len += v[i] != 0.0f;
    }
    return len;
}

#if STONNE_RNG_AVX512

namespace {

/** The first count (<= 16) lanes. */
inline unsigned
lanes(int count)
{
    return (1u << count) - 1;
}

/**
 * One block of compressNonZerosAvx512: the lanes of x that are != 0.0f
 * (unordered, so NaN is kept and -0.0f dropped), with their indices lo
 * (lanes 0-7) and hi (lanes 8-15), appended at slot len.
 */
__attribute__((target("avx512f,popcnt"))) inline index_t
compressBlock(__m512 x, __m512i lo, __m512i hi, index_t len, index_t *cols,
              float *vals)
{
    const __mmask16 keep =
        _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_NEQ_UQ);
    const auto keep_lo = static_cast<__mmask8>(keep);
    const auto keep_hi = static_cast<__mmask8>(keep >> 8);
    const int n_lo = __builtin_popcount(keep_lo);
    const int n_hi = __builtin_popcount(keep_hi);
    _mm512_mask_storeu_ps(vals + len,
                          static_cast<__mmask16>(lanes(n_lo + n_hi)),
                          _mm512_maskz_compress_ps(keep, x));
    _mm512_mask_storeu_epi64(cols + len, static_cast<__mmask8>(lanes(n_lo)),
                             _mm512_maskz_compress_epi64(keep_lo, lo));
    _mm512_mask_storeu_epi64(cols + len + n_lo,
                             static_cast<__mmask8>(lanes(n_hi)),
                             _mm512_maskz_compress_epi64(keep_hi, hi));
    return len + n_lo + n_hi;
}

} // namespace

__attribute__((target("avx512f,popcnt"))) index_t
compressNonZerosAvx512(const float *v, index_t n, index_t base,
                       index_t *cols, float *vals)
{
    // Each store writes exactly the kept lanes, so nothing lands past
    // the returned length; the tail's masked load reads nothing past n.
    const __m512i step = _mm512_set1_epi64(16);
    __m512i lo = _mm512_add_epi64(_mm512_set1_epi64(base),
                                  _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
    __m512i hi = _mm512_add_epi64(lo, _mm512_set1_epi64(8));
    index_t len = 0;
    index_t i = 0;
    for (; i + 16 <= n; i += 16) {
        len = compressBlock(_mm512_loadu_ps(v + i), lo, hi, len, cols, vals);
        lo = _mm512_add_epi64(lo, step);
        hi = _mm512_add_epi64(hi, step);
    }
    if (i < n) {
        const auto tail =
            static_cast<__mmask16>(lanes(static_cast<int>(n - i)));
        len = compressBlock(_mm512_maskz_loadu_ps(tail, v + i), lo, hi, len,
                            cols, vals);
    }
    return len;
}

#endif

} // namespace stonne::kernels
