#include "tensor/im2col.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace stonne {

index_t
Conv2dShape::macs() const
{
    return N * K * outX() * outY() * R * S * cPerGroup();
}

void
Conv2dShape::validate() const
{
    fatalIf(R <= 0 || S <= 0 || C <= 0 || K <= 0 || G <= 0 || N <= 0 ||
            X <= 0 || Y <= 0,
            "convolution dimensions must be positive");
    fatalIf(stride <= 0, "stride must be positive");
    fatalIf(padding < 0, "padding must be non-negative");
    fatalIf(C % G != 0, "channels ", C, " not divisible by groups ", G);
    fatalIf(K % G != 0, "filters ", K, " not divisible by groups ", G);
    fatalIf(X + 2 * padding < R || Y + 2 * padding < S,
            "filter larger than padded input");
}

Tensor
im2col(const Tensor &input, const Conv2dShape &shape, index_t group)
{
    const index_t cols = shape.N * shape.outX() * shape.outY();
    Tensor out({shape.R * shape.S * shape.cPerGroup(), cols});
    im2colInto(input, shape, group, 0, cols, out.data(), cols);
    return out;
}

void
im2colInto(const Tensor &input, const Conv2dShape &shape, index_t group,
           index_t j0, index_t nj, float *dst, index_t ld)
{
    shape.validate();
    fatalIf(group < 0 || group >= shape.G, "group out of range");
    fatalIf(input.rank() != 4, "im2col expects a rank-4 input tensor");
    // Strides come from the tensor, which may be larger than the shape.
    const index_t in_c = input.dim(1), in_x = input.dim(2),
                  in_y = input.dim(3);
    panicIf(input.dim(0) < shape.N || in_c < shape.C || in_x < shape.X ||
            in_y < shape.Y,
            "im2col input is smaller than the convolution shape");

    const index_t cg = shape.cPerGroup();
    const index_t xo = shape.outX();
    const index_t yo = shape.outY();
    panicIf(j0 < 0 || nj < 0 || j0 + nj > shape.N * xo * yo,
            "im2col column range out of bounds");

    // Row (c, r, s) of the patch matrix, column (n, ox, oy), oy fastest.
    // Columns go one output row (n, ox) at a time: its input row ix is
    // either out of bounds (all zeros) or a run of input row ix at stride
    // st, with zeros where iy = oy st + s - pad leaves [0, Y).
    const index_t st = shape.stride;
    const index_t pad = shape.padding;
    const float *in = input.data();
    for (index_t c = 0; c < cg; ++c) {
        for (index_t r = 0; r < shape.R; ++r) {
            for (index_t s = 0; s < shape.S; ++s) {
                float *out = dst + ((c * shape.R + r) * shape.S + s) * ld;
                // The oy whose iy lies in [0, Y): [oy_in_lo, oy_in_hi).
                const index_t oy_in_lo = (std::max<index_t>(0, pad - s) +
                                          st - 1) / st;
                const index_t last = shape.Y - 1 + pad - s;
                const index_t oy_in_hi = last >= 0 ? last / st + 1 : 0;
                index_t n = j0 / (xo * yo), ox = j0 / yo % xo,
                        oy0 = j0 % yo;
                for (index_t j = 0; j < nj;) {
                    const index_t oy1 = std::min(yo, oy0 + nj - j);
                    const index_t ix = ox * st + r - pad;
                    index_t lo = oy0, hi = oy0;
                    if (ix >= 0 && ix < shape.X) {
                        lo = std::min(std::max(oy_in_lo, oy0), oy1);
                        hi = std::max(lo, std::min(oy_in_hi, oy1));
                    }
                    // o[k] is column (n, ox, oy0 + k).
                    float *o = out + j;
                    std::fill(o, o + (lo - oy0), 0.0f);
                    if (hi > lo) {
                        const float *src =
                            in + ((n * in_c + group * cg + c) * in_x + ix) *
                                     in_y + (lo * st + s - pad);
                        float *run = o + (lo - oy0);
                        if (st == 1) {
                            std::copy(src, src + (hi - lo), run);
                        } else {
                            for (index_t k = 0; k < hi - lo; ++k)
                                run[k] = src[k * st];
                        }
                    }
                    std::fill(o + (hi - oy0), o + (oy1 - oy0), 0.0f);
                    j += oy1 - oy0;
                    oy0 = 0;
                    if (++ox == xo) {
                        ox = 0;
                        ++n;
                    }
                }
            }
        }
    }
}

Tensor
filtersToMatrix(const Tensor &weights, const Conv2dShape &shape,
                index_t group)
{
    shape.validate();
    fatalIf(group < 0 || group >= shape.G, "group out of range");
    const index_t cols = shape.R * shape.S * shape.cPerGroup();
    const index_t kg = shape.kPerGroup();
    fatalIf(weights.rank() != 4 || weights.dim(0) != shape.K ||
            weights.size() != shape.K * cols,
            "filtersToMatrix expects rank-4 (K, C/G, R, S) weights");

    // A (C/G, R, S) filter is already flattened in row order, and
    // group g's filters are rows [g Kg, (g+1) Kg).
    Tensor out({kg, cols});
    const float *src = weights.data() + group * kg * cols;
    std::copy(src, src + kg * cols, out.data());
    return out;
}

void
col2im(const Tensor &result, const Conv2dShape &shape, index_t group,
       Tensor &output)
{
    fatalIf(result.rank() != 2 || result.dim(0) != shape.kPerGroup() ||
            result.dim(1) != shape.N * shape.outX() * shape.outY(),
            "col2im result shape mismatch");
    col2imFrom(result.data(), result.dim(1), shape, group, output);
}

void
col2imFrom(const float *src, index_t ld, const Conv2dShape &shape,
           index_t group, Tensor &output)
{
    const index_t plane = shape.outX() * shape.outY();
    const index_t kg = shape.kPerGroup();
    fatalIf(output.rank() != 4 || output.dim(0) != shape.N ||
            output.dim(1) != shape.K || output.dim(2) != shape.outX() ||
            output.dim(3) != shape.outY(),
            "col2im expects a rank-4 (N, K, X', Y') output tensor");

    // Column (n, ox, oy) of row k lands at output (n, k0 + k, ox, oy).
    for (index_t k = 0; k < kg; ++k)
        for (index_t n = 0; n < shape.N; ++n)
            std::copy(src + k * ld + n * plane,
                      src + k * ld + (n + 1) * plane,
                      output.data() +
                          (n * shape.K + group * kg + k) * plane);
}

void
linearFromGemm(const Tensor &result, const Tensor &bias, Tensor &output)
{
    fatalIf(result.rank() != 2, "linear GEMM result must be rank-2");
    const index_t m = result.dim(0);
    const index_t n = result.dim(1);
    fatalIf(output.rank() != 2 || output.dim(0) != n || output.dim(1) != m,
            "linear output shape mismatch");
    fatalIf(!bias.empty() && bias.size() != m, "linear bias size ",
            bias.size(), " for ", m, " features");
    const float *src = result.data();
    const float *bd = bias.empty() ? nullptr : bias.data();
    for (index_t i = 0; i < n; ++i) {
        float *row = output.data() + i * m;
        for (index_t j = 0; j < m; ++j)
            row[j] = src[j * n + i] + (bd != nullptr ? bd[j] : 0.0f);
    }
}

} // namespace stonne
