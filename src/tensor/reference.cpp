#include "tensor/reference.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace stonne::ref {

Tensor
gemm(const Tensor &a, const Tensor &b)
{
    fatalIf(a.rank() != 2 || b.rank() != 2, "gemm expects rank-2 operands");
    const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    fatalIf(b.dim(0) != k, "gemm inner dimensions mismatch: ", k, " vs ",
            b.dim(0));
    Tensor c({m, n});
    for (index_t i = 0; i < m; ++i) {
        for (index_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (index_t p = 0; p < k; ++p)
                acc += a.at(i, p) * b.at(p, j);
            c.at(i, j) = acc;
        }
    }
    return c;
}

Tensor
spmm(const CsrMatrix &a, const Tensor &b)
{
    fatalIf(b.rank() != 2, "spmm expects a rank-2 dense operand");
    fatalIf(b.dim(0) != a.cols, "spmm inner dimensions mismatch");
    const index_t n = b.dim(1);
    Tensor c({a.rows, n});
    for (index_t i = 0; i < a.rows; ++i) {
        for (index_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (index_t p = a.row_ptr[static_cast<std::size_t>(i)];
                 p < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++p) {
                acc += a.values[static_cast<std::size_t>(p)] *
                       b.at(a.col_idx[static_cast<std::size_t>(p)], j);
            }
            c.at(i, j) = acc;
        }
    }
    return c;
}

Tensor
conv2d(const Tensor &input, const Tensor &weights, const Tensor &bias,
       const Conv2dShape &shape)
{
    shape.validate();
    fatalIf(input.rank() != 4, "conv2d expects rank-4 input");
    fatalIf(weights.rank() != 4, "conv2d expects rank-4 weights");
    fatalIf(!bias.empty() && bias.size() != shape.K,
            "conv2d bias size mismatch");

    const index_t xo = shape.outX(), yo = shape.outY();
    const index_t cg = shape.cPerGroup(), kg = shape.kPerGroup();
    Tensor out({shape.N, shape.K, xo, yo});

    for (index_t n = 0; n < shape.N; ++n) {
        for (index_t g = 0; g < shape.G; ++g) {
            for (index_t k = 0; k < kg; ++k) {
                const index_t ko = g * kg + k;
                for (index_t ox = 0; ox < xo; ++ox) {
                    for (index_t oy = 0; oy < yo; ++oy) {
                        float acc = 0.0f;
                        for (index_t c = 0; c < cg; ++c) {
                            for (index_t r = 0; r < shape.R; ++r) {
                                for (index_t s = 0; s < shape.S; ++s) {
                                    const index_t ix = ox * shape.stride +
                                        r - shape.padding;
                                    const index_t iy = oy * shape.stride +
                                        s - shape.padding;
                                    if (ix < 0 || ix >= shape.X || iy < 0 ||
                                        iy >= shape.Y)
                                        continue;
                                    acc += input.at(n, g * cg + c, ix, iy) *
                                           weights.at(ko, c, r, s);
                                }
                            }
                        }
                        // Bias applies after the reduction, matching the
                        // accelerator's collection-point addition order.
                        out.at(n, ko, ox, oy) =
                            acc + (bias.empty() ? 0.0f : bias.at(ko));
                    }
                }
            }
        }
    }
    return out;
}

Tensor
linear(const Tensor &input, const Tensor &weights, const Tensor &bias)
{
    fatalIf(input.rank() != 2, "linear expects rank-2 input");
    fatalIf(weights.rank() != 2, "linear expects rank-2 weights");
    const index_t n = input.dim(0), c = input.dim(1), k = weights.dim(0);
    fatalIf(weights.dim(1) != c, "linear dimension mismatch");
    fatalIf(!bias.empty() && bias.size() != k, "linear bias size mismatch");

    Tensor out({n, k});
    for (index_t i = 0; i < n; ++i) {
        for (index_t j = 0; j < k; ++j) {
            float acc = 0.0f;
            for (index_t p = 0; p < c; ++p)
                acc += input.at(i, p) * weights.at(j, p);
            out.at(i, j) = acc + (bias.empty() ? 0.0f : bias.at(j));
        }
    }
    return out;
}

Tensor
maxPool2d(const Tensor &input, index_t window, index_t stride)
{
    fatalIf(input.rank() != 4, "maxPool2d expects rank-4 input");
    fatalIf(window <= 0 || stride <= 0, "pool window/stride must be positive");
    const index_t n = input.dim(0), c = input.dim(1);
    const index_t x = input.dim(2), y = input.dim(3);
    const index_t xo = (x - window) / stride + 1;
    const index_t yo = (y - window) / stride + 1;
    fatalIf(xo <= 0 || yo <= 0, "pool window larger than input");

    Tensor out({n, c, xo, yo});
    const float *plane = input.data();
    float *dst = out.data();
    for (index_t p = 0; p < n * c; ++p, plane += x * y) {
        for (index_t ox = 0; ox < xo; ++ox) {
            for (index_t oy = 0; oy < yo; ++oy) {
                const float *win = plane + ox * stride * y + oy * stride;
                float best = win[0];
                for (index_t r = 0; r < window; ++r)
                    for (index_t s = 0; s < window; ++s)
                        best = std::max(best, win[r * y + s]);
                *dst++ = best;
            }
        }
    }
    return out;
}

Tensor
globalAvgPool(const Tensor &input)
{
    fatalIf(input.rank() != 4, "globalAvgPool expects rank-4 input");
    const index_t n = input.dim(0), c = input.dim(1);
    const index_t x = input.dim(2), y = input.dim(3);
    Tensor out({n, c, 1, 1});
    const float *plane = input.data();
    float *dst = out.data();
    for (index_t p = 0; p < n * c; ++p, plane += x * y) {
        float acc = 0.0f;
        for (index_t i = 0; i < x * y; ++i)
            acc += plane[i];
        dst[p] = acc / static_cast<float>(x * y);
    }
    return out;
}

Tensor
relu(const Tensor &input)
{
    Tensor out = input;
    float *d = out.data();
    for (index_t i = 0; i < out.size(); ++i)
        d[i] = std::max(0.0f, d[i]);
    return out;
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    fatalIf(a.shape() != b.shape(), "elementwise add shape mismatch");
    Tensor out = a;
    float *d = out.data();
    const float *e = b.data();
    for (index_t i = 0; i < out.size(); ++i)
        d[i] += e[i];
    return out;
}

Tensor
softmax(const Tensor &input)
{
    fatalIf(input.rank() != 2, "softmax expects rank-2 input");
    const index_t n = input.dim(0), c = input.dim(1);
    Tensor out({n, c});
    for (index_t i = 0; i < n; ++i) {
        float mx = input.at(i, 0);
        for (index_t j = 1; j < c; ++j)
            mx = std::max(mx, input.at(i, j));
        float sum = 0.0f;
        for (index_t j = 0; j < c; ++j) {
            float e = std::exp(input.at(i, j) - mx);
            out.at(i, j) = e;
            sum += e;
        }
        for (index_t j = 0; j < c; ++j)
            out.at(i, j) /= sum;
    }
    return out;
}

Tensor
logSoftmax(const Tensor &input)
{
    Tensor sm = softmax(input);
    for (index_t i = 0; i < sm.size(); ++i)
        sm.at(i) = std::log(sm.at(i));
    return sm;
}

Tensor
layerNorm(const Tensor &input, float eps)
{
    fatalIf(input.rank() != 2, "layerNorm expects rank-2 input");
    const index_t n = input.dim(0), c = input.dim(1);
    Tensor out({n, c});
    for (index_t i = 0; i < n; ++i) {
        float mean = 0.0f;
        for (index_t j = 0; j < c; ++j)
            mean += input.at(i, j);
        mean /= static_cast<float>(c);
        float var = 0.0f;
        for (index_t j = 0; j < c; ++j) {
            float d = input.at(i, j) - mean;
            var += d * d;
        }
        var /= static_cast<float>(c);
        const float inv = 1.0f / std::sqrt(var + eps);
        for (index_t j = 0; j < c; ++j)
            out.at(i, j) = (input.at(i, j) - mean) * inv;
    }
    return out;
}

} // namespace stonne::ref
