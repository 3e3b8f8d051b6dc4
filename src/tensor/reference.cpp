#include "tensor/reference.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hpp"

namespace stonne::ref {

Tensor
gemm(const Tensor &a, const Tensor &b)
{
    fatalIf(a.rank() != 2 || b.rank() != 2, "gemm expects rank-2 operands");
    const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    fatalIf(b.dim(0) != k, "gemm inner dimensions mismatch: ", k, " vs ",
            b.dim(0));
    // Row i of c accumulates a(i, p) * b(p, :) for p = 0, 1, ...: each
    // output still sums its products in ascending p from +0.0f.
    Tensor c({m, n});
    float *crow = c.data();
    for (index_t i = 0; i < m; ++i, crow += n) {
        for (index_t p = 0; p < k; ++p) {
            const float av = a.data()[i * k + p];
            const float *brow = b.data() + p * n;
            for (index_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
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
    float *crow = c.data();
    for (index_t i = 0; i < a.rows; ++i, crow += n) {
        for (index_t p = a.row_ptr[static_cast<std::size_t>(i)];
             p < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++p) {
            const float v = a.values[static_cast<std::size_t>(p)];
            const index_t col = a.col_idx[static_cast<std::size_t>(p)];
            fatalIf(col < 0 || col >= a.cols, "spmm: column index ", col,
                    " out of range for ", a.cols, " columns");
            const float *brow = b.data() + col * n;
            for (index_t j = 0; j < n; ++j)
                crow[j] += v * brow[j];
        }
    }
    return c;
}

Tensor
conv2d(const Tensor &input, const Tensor &weights, const Tensor &bias,
       const Conv2dShape &shape)
{
    shape.validate();
    const index_t cg = shape.cPerGroup(), kg = shape.kPerGroup();
    fatalIf(input.shape() !=
                std::vector<index_t>{shape.N, shape.C, shape.X, shape.Y},
            "conv2d input shape does not match the layer shape");
    fatalIf(weights.shape() !=
                std::vector<index_t>{shape.K, cg, shape.R, shape.S},
            "conv2d weights shape does not match the layer shape");
    fatalIf(!bias.empty() && bias.size() != shape.K,
            "conv2d bias size mismatch");

    const index_t xo = shape.outX(), yo = shape.outY();
    const index_t stride = shape.stride, pad = shape.padding;
    const index_t window = cg * shape.R * shape.S;
    Tensor out({shape.N, shape.K, xo, yo});
    float *o = out.data();

    // One output row (n, ko, ox, :) at a time: each tap (c, r, s) adds
    // its product to every output it reaches, so each output sums its
    // in-range taps in the same (c, r, s) order as the direct form, and
    // out-of-range (padding) taps are skipped, not added as zeros.
    std::vector<float> acc(static_cast<std::size_t>(yo));
    for (index_t n = 0; n < shape.N; ++n) {
        for (index_t ko = 0; ko < shape.K; ++ko) {
            const float *wk = weights.data() + ko * window;
            const float *in_g = input.data() +
                (n * shape.C + (ko / kg) * cg) * shape.X * shape.Y;
            // Bias applies after the reduction, matching the
            // accelerator's collection-point addition order.
            const float b = bias.empty() ? 0.0f : bias.data()[ko];
            for (index_t ox = 0; ox < xo; ++ox) {
                std::fill(acc.begin(), acc.end(), 0.0f);
                for (index_t c = 0; c < cg; ++c) {
                    for (index_t r = 0; r < shape.R; ++r) {
                        const index_t ix = ox * stride + r - pad;
                        if (ix < 0 || ix >= shape.X)
                            continue;
                        const float *row =
                            in_g + (c * shape.X + ix) * shape.Y;
                        for (index_t s = 0; s < shape.S; ++s) {
                            // Outputs oy whose column oy*stride + s - pad
                            // lies in [0, Y).
                            const index_t off = s - pad;
                            const index_t lo = std::max<index_t>(
                                0, (stride - 1 - off) / stride);
                            const index_t hi = std::min(
                                yo, (shape.Y - 1 - off + stride) / stride);
                            const float wv =
                                wk[(c * shape.R + r) * shape.S + s];
                            for (index_t oy = lo; oy < hi; ++oy)
                                acc[static_cast<std::size_t>(oy)] +=
                                    row[oy * stride + off] * wv;
                        }
                    }
                }
                float *orow = o + ((n * shape.K + ko) * xo + ox) * yo;
                for (index_t oy = 0; oy < yo; ++oy)
                    orow[oy] = acc[static_cast<std::size_t>(oy)] + b;
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
    float *o = out.data();
    for (index_t i = 0; i < n; ++i) {
        const float *x = input.data() + i * c;
        for (index_t j = 0; j < k; ++j) {
            const float *wj = weights.data() + j * c;
            float acc = 0.0f;
            for (index_t p = 0; p < c; ++p)
                acc += x[p] * wj[p];
            o[i * k + j] = acc + (bias.empty() ? 0.0f : bias.data()[j]);
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

// The elementwise ops write a fresh tensor in one read pass: a copy of
// the input would share its storage, so rewriting it in place would
// first copy every element.

Tensor
relu(const Tensor &input)
{
    Tensor out(input.shape());
    const float *x = input.data();
    float *d = out.data();
    for (index_t i = 0; i < out.size(); ++i)
        d[i] = std::max(0.0f, x[i]);
    return out;
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    fatalIf(a.shape() != b.shape(), "elementwise add shape mismatch");
    Tensor out(a.shape());
    const float *x = a.data();
    const float *e = b.data();
    float *d = out.data();
    for (index_t i = 0; i < out.size(); ++i)
        d[i] = x[i] + e[i];
    return out;
}

Tensor
softmax(const Tensor &input)
{
    fatalIf(input.rank() != 2, "softmax expects rank-2 input");
    const index_t n = input.dim(0), c = input.dim(1);
    fatalIf(n > 0 && c == 0, "softmax over empty rows");
    Tensor out({n, c});
    for (index_t i = 0; i < n; ++i) {
        const float *x = input.data() + i * c;
        float *y = out.data() + i * c;
        float mx = x[0];
        for (index_t j = 1; j < c; ++j)
            mx = std::max(mx, x[j]);
        float sum = 0.0f;
        for (index_t j = 0; j < c; ++j) {
            const float e = std::exp(x[j] - mx);
            y[j] = e;
            sum += e;
        }
        for (index_t j = 0; j < c; ++j)
            y[j] /= sum;
    }
    return out;
}

Tensor
logSoftmax(const Tensor &input)
{
    Tensor sm = softmax(input);
    float *d = sm.data();
    for (index_t i = 0; i < sm.size(); ++i)
        d[i] = std::log(d[i]);
    return sm;
}

Tensor
layerNorm(const Tensor &input, float eps)
{
    fatalIf(input.rank() != 2, "layerNorm expects rank-2 input");
    const index_t n = input.dim(0), c = input.dim(1);
    Tensor out({n, c});
    for (index_t i = 0; i < n; ++i) {
        const float *x = input.data() + i * c;
        float *y = out.data() + i * c;
        float mean = 0.0f;
        for (index_t j = 0; j < c; ++j)
            mean += x[j];
        mean /= static_cast<float>(c);
        float var = 0.0f;
        for (index_t j = 0; j < c; ++j) {
            const float d = x[j] - mean;
            var += d * d;
        }
        var /= static_cast<float>(c);
        const float inv = 1.0f / std::sqrt(var + eps);
        for (index_t j = 0; j < c; ++j)
            y[j] = (x[j] - mean) * inv;
    }
    return out;
}

} // namespace stonne::ref
