/**
 * @file
 * Incremental DNN graph builder with shape tracking and synthetic
 * weight generation.
 *
 * Used by the model zoo (the seven Table I networks) and by the
 * text-format model loader (the Caffe-style second front-end). Each
 * call appends one layer, checks shapes, synthesizes He-initialized
 * weights and prunes them to the model's target sparsity with
 * per-filter jitter (a sparsity of 0 prunes nothing).
 */

#ifndef STONNE_FRONTEND_MODEL_BUILDER_HPP
#define STONNE_FRONTEND_MODEL_BUILDER_HPP

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "frontend/dnn_layer.hpp"

namespace stonne {

/** Builds a DnnModel layer by layer. */
class ModelBuilder
{
  public:
    ModelBuilder(std::string name, double sparsity, std::uint64_t seed);

    /** Set an (n, c, x, y) image input (n = batch, default 1). */
    void setInput(index_t c, index_t x, index_t y, index_t n = 1);

    /** Set a rank-2 (rows, features) input (sequence models). */
    void setInput2d(index_t rows, index_t features);

    /** Index of the last appended layer (-1 when empty). */
    int last() const;

    /** Output shape of a layer (-1 = previous, kFromModelInput = input). */
    const std::vector<index_t> &shapeOf(int idx) const;

    index_t spatialX() const { return shapeOf(-1)[2]; }
    index_t channels() const { return shapeOf(-1)[1]; }

    int conv(const std::string &name, index_t k_out, index_t kernel,
             index_t stride, index_t pad, index_t groups = 1,
             int input_from = -1);
    int relu();

    /** Max pool, skipped when the map is smaller than the window. */
    int maybeMaxPool(index_t w, index_t s);

    int globalAvgPool();
    int flatten();
    int linear(const std::string &name, index_t out);
    int attention(const std::string &name, index_t heads);
    int addResidual(int operand);
    int concat(int operand);
    int softmax();
    int logSoftmax();
    int layerNorm();

    /** Mark a layer's output as needed later. */
    void markSaved(int idx);

    /** Finalize (marks input_from references saved). */
    DnnModel finish();

  private:
    int push(DnnLayer l, std::vector<index_t> out_shape);

    DnnModel model_;
    double sparsity_;
    Rng rng_;
    std::vector<index_t> input_shape_;
    std::vector<std::vector<index_t>> shapes_;
};

} // namespace stonne

#endif // STONNE_FRONTEND_MODEL_BUILDER_HPP
