/**
 * @file
 * im2col lowering of (grouped, strided, padded) convolutions to GEMM.
 *
 * The paper's sparse controller "runs GEMM operations (any CONV operation
 * can be mapped to GEMM using the img2col function)". This module provides
 * that lowering plus the shape bookkeeping shared by the dense pipeline.
 */

#ifndef STONNE_TENSOR_IM2COL_HPP
#define STONNE_TENSOR_IM2COL_HPP

#include "tensor/tensor.hpp"

namespace stonne {

/** Shape of a 2-d convolution, following the paper's 7-parameter layer
 *  definition Layer(R, S, C, K, G, N, X', Y') plus stride and padding. */
struct Conv2dShape {
    index_t R = 1;       //!< filter rows
    index_t S = 1;       //!< filter columns
    index_t C = 1;       //!< input channels (total, across groups)
    index_t K = 1;       //!< output channels (total, across groups)
    index_t G = 1;       //!< groups (factorized convolutions)
    index_t N = 1;       //!< batch size
    index_t X = 1;       //!< input rows
    index_t Y = 1;       //!< input columns
    index_t stride = 1;
    index_t padding = 0;

    /** Output rows X'. */
    index_t outX() const { return (X + 2 * padding - R) / stride + 1; }
    /** Output columns Y'. */
    index_t outY() const { return (Y + 2 * padding - S) / stride + 1; }
    /** Channels per group. */
    index_t cPerGroup() const { return C / G; }
    /** Filters per group. */
    index_t kPerGroup() const { return K / G; }
    /** Multiply-accumulate count of the dense convolution. */
    index_t macs() const;
    /** Validate divisibility and positivity constraints. */
    void validate() const;
};

/**
 * Lower one group of the input activation tensor to a patch matrix.
 *
 * @param input activations, shape (N, C, X, Y)
 * @param shape convolution shape
 * @param group group index in [0, G)
 * @return matrix of shape (R*S*Cg, N*X'*Y'), column j holding the patch
 *         feeding output position j
 */
Tensor im2col(const Tensor &input, const Conv2dShape &shape, index_t group);

/**
 * Columns [j0, j0 + nj) of im2col(), written into `dst`: a row-major
 * matrix with row stride `ld`.
 */
void im2colInto(const Tensor &input, const Conv2dShape &shape, index_t group,
                index_t j0, index_t nj, float *dst, index_t ld);

/**
 * Flatten one group of the weight tensor to a filter matrix.
 *
 * @param weights filters, shape (K, Cg, R, S)
 * @return matrix of shape (Kg, R*S*Cg): row k = flattened filter k
 */
Tensor filtersToMatrix(const Tensor &weights, const Conv2dShape &shape,
                       index_t group);

/**
 * Scatter a GEMM result matrix (Kg x N*X'*Y') for one group back into the
 * output activation tensor of shape (N, K, X', Y').
 */
void col2im(const Tensor &result, const Conv2dShape &shape, index_t group,
            Tensor &output);

/** col2im() of a result matrix read from `src`, with row stride `ld`. */
void col2imFrom(const float *src, index_t ld, const Conv2dShape &shape,
                index_t group, Tensor &output);

/**
 * Write a linear layer's (batch x features) output from its GEMM result
 * (features x batch): output(i, j) = result(j, i) + bias(j). An empty
 * bias adds +0, which turns a -0 sum into +0 as a zero bias would.
 */
void linearFromGemm(const Tensor &result, const Tensor &bias,
                    Tensor &output);

} // namespace stonne

#endif // STONNE_TENSOR_IM2COL_HPP
