/**
 * @file
 * Weight pruning to target sparsity ratios.
 *
 * Table I of the paper reports 60-90 % weight sparsity obtained with "an
 * unstructured weight pruning approach similar to that described by Zhu
 * et al." (magnitude pruning). We reproduce that: given synthetic trained
 * weights, zero the smallest-magnitude fraction. A per-filter jitter knob
 * produces the *non-uniform* per-filter nnz distributions that drive the
 * sparse-execution results (Figs 1c, 7, 9) — real pruned networks never
 * prune every filter equally.
 */

#ifndef STONNE_TENSOR_PRUNE_HPP
#define STONNE_TENSOR_PRUNE_HPP

#include "common/rng.hpp"
#include "common/rng_kernels.hpp"
#include "tensor/tensor.hpp"

namespace stonne {

/**
 * The k-th smallest (0-based) |x| over data[0, n), k in [0, n): the
 * value std::nth_element over the magnitudes leaves at position k, bit
 * for bit. The magnitude pruners select their thresholds with it. NaN
 * has no magnitude order, so a span holding one is rejected.
 */
float kthSmallestMagnitude(const float *data, index_t n, index_t k);

/**
 * kthSmallestMagnitude's two kernels, the same radix descent over the
 * magnitude keys (tensor/prune.cpp): it dispatches to the AVX-512 one
 * where rng_kernels::avx512() holds and to the portable one, also the
 * tests' oracle, elsewhere. The AVX-512 one runs only on such CPUs.
 */
float kthSmallestMagnitudePortable(const float *data, index_t n, index_t k);
#if STONNE_RNG_AVX512
float kthSmallestMagnitudeAvx512(const float *data, index_t n, index_t k);
#endif

/**
 * Zero the smallest-magnitude fraction of all elements (unstructured
 * magnitude pruning, Zhu & Gupta style).
 *
 * @param t tensor pruned in place
 * @param sparsity target fraction of zeros in [0, 1)
 */
void pruneMagnitude(Tensor &t, double sparsity);

/**
 * Prune a filter tensor (dim 0 = filters) with per-filter sparsity drawn
 * uniformly from [sparsity - jitter, sparsity + jitter], clamped to
 * [0, 0.98]. The expected overall sparsity stays near the target while
 * individual filter nnz counts vary, as in real pruned models.
 */
void pruneFiltersWithJitter(Tensor &t, double sparsity, double jitter,
                            Rng &rng);

/** What synthesizePrunedWeights computed. The floor counts are of
 *  filters given a first floor (fillNormalPrunableAvx512): kept as
 *  guessed, kept lowered, or dropped, so that every weight was exact. */
struct SynthesisCounts {
    index_t exact = 0; //!< weights computed exactly (that called logf)
    index_t first_floor = 0;
    index_t lowered_floor = 0;
    index_t dropped_floor = 0;
};

/**
 * t.fillNormal(rng, 0, stddev), then, when sparsity > 0,
 * pruneFiltersWithJitter(t, sparsity, jitter, rng), bit for bit, leaving
 * rng in the same state; a sparsity of 0 or less fills only, and draws
 * no jitters. Where rng_kernels::avx512() holds, each filter of a pruned
 * tensor is synthesised by fillNormalPrunableAvx512 for the fewest zeros
 * any jitter draw asks of it, so only weights that pruning can keep call
 * logf; elsewhere it runs the two calls.
 */
SynthesisCounts synthesizePrunedWeights(Tensor &t, Rng &rng, float stddev,
                                        double sparsity, double jitter);

/** Zero each element independently with probability `sparsity`. */
void pruneRandom(Tensor &t, double sparsity, Rng &rng);

} // namespace stonne

#endif // STONNE_TENSOR_PRUNE_HPP
