/**
 * @file
 * SIMD kernels of the functional fast path: the sparse-row GEMM every
 * fabric's functional convolution and GEMM runs on, the bias adds and
 * the CSR lowering (internal: the library and its tests include it).
 *
 * Every kernel is bit-identical to its scalar form. Each output lane
 * gets one rounded multiply and one rounded add, as the scalar
 * statement does (the library builds with -ffp-contract=off, so they
 * are never fused), and no lane reads another's value: vectorising
 * across outputs leaves every output's summation order unchanged.
 *
 * They use the GCC/Clang vector extension, so one source serves every
 * x86-64 level (SSE2 and up) and other targets alike, with no build
 * flag. Two kernels have AVX-512 forms, run on CPUs that run the AVX-512
 * synthesis kernels (rng_kernels::avx512(), decided once per process).
 * compressNonZeros dispatches to one, since the vector extension has no
 * compress and the portable form moves one element per step.
 * denseBlockAvx512 multiplies blocks of dense rows: it shares each B
 * load among several rows, which a row-at-a-time kernel cannot, and
 * callers take it where denseBlocks() holds, for rows past
 * denseRowPays. The portable forms stay the fallback and the tests'
 * oracle.
 */

#ifndef STONNE_TENSOR_KERNELS_HPP
#define STONNE_TENSOR_KERNELS_HPP

#include "common/rng_kernels.hpp"
#include "common/types.hpp"

namespace stonne::kernels {

/** The widest column block sparseRowTimesPanel keeps in registers. */
constexpr index_t kRowBlockCols = 32;

/**
 * crow[j] = the sum, from +0 in list order, of vals[p] * b[cols[p] * ld +
 * j] over p < nnz, for j < nj: one row of a sparse matrix times a (rows
 * x nj) panel of B with row stride ld. crow does not overlap the
 * operands; every crow[j] is written once.
 */
void sparseRowTimesPanel(float *crow, index_t nj, const index_t *cols,
                         const float *vals, index_t nnz, const float *b,
                         index_t ld);

/** c[j] += a for j < n. */
void addScalar(float *c, float a, index_t n);

/** Whether v[0, n) holds no inf or NaN. */
bool allFinite(const float *v, index_t n);

/** How many of v[0, n) satisfy v != 0.0f: NaN counts, -0.0f does not. */
index_t countNonZeros(const float *v, index_t n);

/**
 * The v[i] != 0.0f of v[0, n), in order, into vals, with base + i into
 * cols; returns how many. cols and vals need room for exactly that many
 * (countNonZeros): nothing past them is written. Runs the AVX-512 kernel
 * when rng_kernels::avx512() holds, the portable one otherwise.
 */
index_t compressNonZeros(const float *v, index_t n, index_t base,
                         index_t *cols, float *vals);

/** compressNonZeros one element per step, branch-free. */
index_t compressNonZerosPortable(const float *v, index_t n, index_t base,
                                 index_t *cols, float *vals);

/**
 * Whether a row with nnz of its k entries non-zero goes through
 * denseBlockAvx512 rather than a sparseRowTimesPanel term list: once
 * more than a quarter of them are non-zero. Below that the term list
 * skips enough terms to win (DESIGN §16 has the measured crossover).
 */
constexpr bool
denseRowPays(index_t nnz, index_t k)
{
    return 4 * nnz > k;
}

/** Whether denseBlock runs on this CPU: where rng_kernels::avx512()
 *  holds. */
bool denseBlocks();

/** denseBlockAvx512; call it only when denseBlocks() holds. */
void denseBlock(float *c, index_t ldc, index_t rows, index_t nj,
                const float *a, index_t k, const float *b, index_t ldb);

#if STONNE_RNG_AVX512
/**
 * c[r * ldc + j] = the sum, from +0 in ascending kk, of a[r * k + kk] *
 * b[kk * ldb + j], for r < rows and j < nj: a dense (rows x k) block of
 * A times a (k x nj) panel of B. Each term is one rounded multiply and
 * one rounded add, as in the scalar loop. Nothing outside the block of
 * c is written. Call only when rng_kernels::avx512() holds.
 */
void denseBlockAvx512(float *c, index_t ldc, index_t rows, index_t nj,
                      const float *a, index_t k, const float *b,
                      index_t ldb);

/** compressNonZeros 16 elements per step: compress in registers, then
 *  masked stores of the kept lanes. Call only when rng_kernels::avx512()
 *  holds. */
index_t compressNonZerosAvx512(const float *v, index_t n, index_t base,
                               index_t *cols, float *vals);
#endif

} // namespace stonne::kernels

#endif // STONNE_TENSOR_KERNELS_HPP
