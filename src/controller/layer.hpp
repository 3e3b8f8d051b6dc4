/**
 * @file
 * Layer descriptor: what the DL front-end asks the accelerator to run.
 *
 * Follows the paper's 7-parameter layer definition
 * Layer(R, S, C, K, G, N, X', Y') for convolutions, with GEMM views for
 * linear layers / matrix multiplications and pooling parameters for the
 * MaxPool mapping. Every STONNE API Configure* instruction carries one of
 * these.
 */

#ifndef STONNE_CONTROLLER_LAYER_HPP
#define STONNE_CONTROLLER_LAYER_HPP

#include <string>

#include "tensor/im2col.hpp"

namespace stonne {

/** Operation classes the STONNE API can configure (Table III). */
enum class LayerKind {
    Convolution, //!< ConfigureCONV
    Linear,      //!< ConfigureLinear
    Gemm,        //!< ConfigureDMM (dense matrix multiplication)
    SparseGemm,  //!< ConfigureSpMM
    MaxPool,     //!< ConfigureMaxPool
};

const char *layerKindName(LayerKind k);

/** GEMM view of any layer: C(M x N) += A(M x K) * B(K x N). */
struct GemmDims {
    index_t m = 1; //!< rows of the stationary operand (filters)
    index_t n = 1; //!< streamed output columns (positions / batch)
    index_t k = 1; //!< dot-product length
};

/**
 * The 1x1 convolution that computes a GEMM: M filters of a K-element
 * window over a 1 x N input (R = S = G = N = X = 1, C = k, K = m, Y = n).
 */
Conv2dShape gemmAsConv(const GemmDims &g);

/** One operation offloaded to the simulated accelerator. */
struct LayerSpec {
    std::string name = "layer";
    LayerKind kind = LayerKind::Convolution;

    /** Convolution shape; also carries pooling spatial dims. */
    Conv2dShape conv;

    /** GEMM dims for Linear / Gemm / SparseGemm layers. */
    GemmDims gemm;

    /** Pooling parameters for MaxPool layers. */
    index_t pool_window = 2;
    index_t pool_stride = 2;

    /** Make a convolution layer spec. */
    static LayerSpec convolution(std::string name, Conv2dShape shape);

    /** Make a fully-connected layer spec (batch x in -> batch x out). */
    static LayerSpec linear(std::string name, index_t batch, index_t in,
                            index_t out);

    /** Make a dense GEMM layer spec. */
    static LayerSpec gemmLayer(std::string name, index_t m, index_t n,
                               index_t k);

    /** Make a sparse GEMM layer spec. */
    static LayerSpec sparseGemm(std::string name, index_t m, index_t n,
                                index_t k);

    /** Make a max-pooling layer spec. */
    static LayerSpec maxPool(std::string name, Conv2dShape input_shape,
                             index_t window, index_t stride);

    /**
     * The GEMM view of this layer: for convolutions, the per-group
     * im2col dimensions (M = K/G filters, N = N*X'*Y' positions,
     * K = R*S*C/G); identity for GEMM-kind layers.
     */
    GemmDims gemmView() const;

    /** Multiply-accumulate operations of the dense computation. */
    index_t macs() const;

    /** Validate the spec, throwing FatalError on inconsistencies. */
    void validate() const;
};

} // namespace stonne

#endif // STONNE_CONTROLLER_LAYER_HPP
