#include "tensor/kernels.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <utility>

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

bool
allFinite(const float *v, index_t n)
{
    // A float is inf or NaN when its exponent bits are all set. Each
    // 64-element chunk ORs its lanes' verdicts, so the loop exits within
    // one chunk of the first one.
    const Int4 exp = {0x7f800000, 0x7f800000, 0x7f800000, 0x7f800000};
    index_t i = 0;
    for (; i + 64 <= n; i += 64) {
        Int4 bad = {};
#pragma GCC unroll 16
        for (index_t u = 0; u < 64; u += 4) {
            Int4 x;
            std::memcpy(&x, v + i + u, sizeof x);
            bad |= (x & exp) == exp;
        }
        if (bad[0] | bad[1] | bad[2] | bad[3])
            return false;
    }
    for (; i < n; ++i) {
        std::uint32_t x;
        std::memcpy(&x, v + i, sizeof x);
        if ((x & 0x7f800000u) == 0x7f800000u)
            return false;
    }
    return true;
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

bool
denseBlocks()
{
    return rng_kernels::avx512();
}

#if STONNE_RNG_AVX512
void
denseBlock(float *c, index_t ldc, index_t rows, index_t nj, const float *a,
           index_t k, const float *b, index_t ldb)
{
    denseBlockAvx512(c, ldc, rows, nj, a, k, b, ldb);
}
#else
// denseBlocks() is false in such a build, so nothing calls this.
void
denseBlock(float *, index_t, index_t, index_t, const float *, index_t,
           const float *, index_t)
{
}
#endif

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

namespace {

/** Rows denseBlockAvx512 keeps in registers at a time. */
constexpr index_t kDenseRows = 8;
/** 16-lane column vectors denseBlockAvx512 keeps per row. */
constexpr index_t kDenseVecs = 3;

/**
 * Rows [0, R) times column vectors [0, V) of denseBlockAvx512 in R * V
 * accumulators. Per term each B vector is loaded once and shared by all
 * R rows, each A value is broadcast once and shared by all V vectors,
 * and each accumulator gets one rounded multiply and one rounded add:
 * every lane is its own output's chain from +0 in ascending kk. The last
 * vector loads and stores only the `last` lanes.
 */
template <int R, int V>
__attribute__((target("avx512f"))) inline void
denseTile(float *c, index_t ldc, const float *a, index_t k, const float *b,
          index_t ldb, __mmask16 last)
{
    __m512 acc[R][V];
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            acc[r][v] = _mm512_setzero_ps();
    for (index_t kk = 0; kk < k; ++kk) {
        const float *brow = b + kk * ldb;
        __m512 bv[V];
#pragma GCC unroll 4
        for (int v = 0; v + 1 < V; ++v)
            bv[v] = _mm512_loadu_ps(brow + 16 * v);
        bv[V - 1] = _mm512_maskz_loadu_ps(last, brow + 16 * (V - 1));
#pragma GCC unroll 16
        for (int r = 0; r < R; ++r) {
            const __m512 av = _mm512_set1_ps(a[r * k + kk]);
#pragma GCC unroll 4
            for (int v = 0; v < V; ++v)
                acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(av, bv[v]));
        }
    }
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
        for (int v = 0; v + 1 < V; ++v)
            _mm512_storeu_ps(c + r * ldc + 16 * v, acc[r][v]);
        _mm512_mask_storeu_ps(c + r * ldc + 16 * (V - 1), last,
                              acc[r][V - 1]);
    }
}

/** All nj columns of R rows of denseBlockAvx512: whole kDenseVecs-vector
 *  tiles, then one tile of the vectors left, its last one masked. */
template <int R>
__attribute__((target("avx512f"))) void
denseRows(float *c, index_t ldc, index_t nj, const float *a, index_t k,
          const float *b, index_t ldb)
{
    constexpr index_t kTileCols = 16 * kDenseVecs;
    index_t j = 0;
    for (; j + kTileCols <= nj; j += kTileCols)
        denseTile<R, kDenseVecs>(c + j, ldc, a, k, b + j, ldb, 0xFFFF);
    const index_t left = nj - j;
    if (left == 0)
        return;
    const auto last = static_cast<__mmask16>(
        lanes(static_cast<int>((left - 1) % 16 + 1)));
    static_assert(kDenseVecs == 3, "one case per vector count below");
    switch ((left + 15) / 16) {
      case 1: denseTile<R, 1>(c + j, ldc, a, k, b + j, ldb, last); break;
      case 2: denseTile<R, 2>(c + j, ldc, a, k, b + j, ldb, last); break;
      default: denseTile<R, 3>(c + j, ldc, a, k, b + j, ldb, last); break;
    }
}

/** Transposes the 16 x 16 block r in place: r[i] lane j becomes r[j]
 *  lane i. */
__attribute__((target("avx512f"))) inline void
transpose16(__m512 r[16])
{
    __m512 t[16];
#pragma GCC unroll 8
    for (int i = 0; i < 16; i += 2) {
        t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
    }
    // r[4q + e], 128-bit lane l: rows 4q..4q+3 of column 4l + e.
#pragma GCC unroll 4
    for (int q = 0; q < 16; q += 4) {
        r[q] = _mm512_shuffle_ps(t[q], t[q + 2], 0x44);
        r[q + 1] = _mm512_shuffle_ps(t[q], t[q + 2], 0xEE);
        r[q + 2] = _mm512_shuffle_ps(t[q + 1], t[q + 3], 0x44);
        r[q + 3] = _mm512_shuffle_ps(t[q + 1], t[q + 3], 0xEE);
    }
#pragma GCC unroll 4
    for (int e = 0; e < 4; ++e) {
        t[e] = _mm512_shuffle_f32x4(r[e], r[e + 4], 0x88);
        t[e + 4] = _mm512_shuffle_f32x4(r[e], r[e + 4], 0xDD);
        t[e + 8] = _mm512_shuffle_f32x4(r[e + 8], r[e + 12], 0x88);
        t[e + 12] = _mm512_shuffle_f32x4(r[e + 8], r[e + 12], 0xDD);
    }
#pragma GCC unroll 8
    for (int e = 0; e < 8; ++e) {
        r[e] = _mm512_shuffle_f32x4(t[e], t[e + 8], 0x88);
        r[e + 8] = _mm512_shuffle_f32x4(t[e], t[e + 8], 0xDD);
    }
}

/**
 * Up to 16 rows of denseBlockAvx512 one per lane, for a panel of NJ < 16
 * columns: one accumulator per column. A comes in 16 x 16 blocks,
 * transposed in registers so that each term's A vector holds one value
 * per row and is shared by all NJ columns. The results go out through a
 * transposing buffer, one scalar store per output.
 */
template <int NJ>
__attribute__((target("avx512f"))) void
denseLanes(float *c, index_t ldc, index_t rows, const float *a, index_t k,
           const float *b, index_t ldb)
{
    __m512 acc[NJ];
#pragma GCC unroll 16
    for (int j = 0; j < NJ; ++j)
        acc[j] = _mm512_setzero_ps();
    alignas(64) float block[16][16];
    for (index_t k0 = 0; k0 < k; k0 += 16) {
        const index_t kb = std::min<index_t>(16, k - k0);
        const auto live = static_cast<__mmask16>(lanes(static_cast<int>(kb)));
        __m512 r[16];
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i)
            r[i] = i < rows ? _mm512_maskz_loadu_ps(live, a + i * k + k0)
                            : _mm512_setzero_ps();
        transpose16(r);
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i)
            _mm512_store_ps(block[i], r[i]);
        for (index_t kk = 0; kk < kb; ++kk) {
            const __m512 av = _mm512_load_ps(block[kk]);
            const float *brow = b + (k0 + kk) * ldb;
#pragma GCC unroll 16
            for (int j = 0; j < NJ; ++j)
                acc[j] = _mm512_add_ps(
                    acc[j], _mm512_mul_ps(av, _mm512_set1_ps(brow[j])));
        }
    }
#pragma GCC unroll 16
    for (int j = 0; j < NJ; ++j)
        _mm512_store_ps(block[j], acc[j]);
    for (index_t r = 0; r < rows; ++r)
        for (int j = 0; j < NJ; ++j)
            c[r * ldc + j] = block[j][r];
}

/** denseRows or denseLanes: (c, ldc, nj or rows, a, k, b, ldb). */
using DenseFn = void (*)(float *, index_t, index_t, const float *, index_t,
                         const float *, index_t);

/** denseRows<1..kDenseRows>, at [R - 1]. */
template <std::size_t... R>
constexpr std::array<DenseFn, sizeof...(R)>
denseRowsTable(std::index_sequence<R...>)
{
    return {denseRows<int(R) + 1>...};
}

/** denseLanes<1..15>, at [NJ - 1]. */
template <std::size_t... NJ>
constexpr std::array<DenseFn, sizeof...(NJ)>
denseLanesTable(std::index_sequence<NJ...>)
{
    return {denseLanes<int(NJ) + 1>...};
}

} // namespace

__attribute__((target("avx512f"))) void
denseBlockAvx512(float *c, index_t ldc, index_t rows, index_t nj,
                 const float *a, index_t k, const float *b, index_t ldb)
{
    static constexpr auto kRows =
        denseRowsTable(std::make_index_sequence<kDenseRows>{});
    static constexpr auto kLanes =
        denseLanesTable(std::make_index_sequence<15>{});
    if (nj <= 0)
        return;
    if (nj < 16) {
        for (index_t r = 0; r < rows; r += 16)
            kLanes[static_cast<std::size_t>(nj - 1)](
                c + r * ldc, ldc, std::min<index_t>(16, rows - r),
                a + r * k, k, b, ldb);
        return;
    }
    for (index_t r = 0; r < rows; r += kDenseRows)
        kRows[static_cast<std::size_t>(std::min(kDenseRows, rows - r) - 1)](
            c + r * ldc, ldc, nj, a + r * k, k, b, ldb);
}

#endif

} // namespace stonne::kernels
