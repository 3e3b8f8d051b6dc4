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

    // Row (c, r, s) of the patch matrix, column (n, ox, oy).
    for (index_t c = 0; c < cg; ++c) {
        for (index_t r = 0; r < shape.R; ++r) {
            for (index_t s = 0; s < shape.S; ++s) {
                float *out = dst + ((c * shape.R + r) * shape.S + s) * ld;
                index_t n = j0 / (xo * yo), ox = j0 / yo % xo,
                        oy = j0 % yo;
                for (index_t j = 0; j < nj; ++j) {
                    const index_t ix = ox * shape.stride + r - shape.padding;
                    const index_t iy = oy * shape.stride + s - shape.padding;
                    out[j] = ix >= 0 && ix < shape.X && iy >= 0 &&
                            iy < shape.Y
                        ? input.data()[((n * in_c + group * cg + c) * in_x +
                                        ix) * in_y + iy]
                        : 0.0f;
                    if (++oy == yo) {
                        oy = 0;
                        if (++ox == xo) {
                            ox = 0;
                            ++n;
                        }
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
