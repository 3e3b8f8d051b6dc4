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

/** Zero each element independently with probability `sparsity`. */
void pruneRandom(Tensor &t, double sparsity, Rng &rng);

} // namespace stonne

#endif // STONNE_TENSOR_PRUNE_HPP
