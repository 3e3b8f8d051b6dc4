#include "controller/layer.hpp"

#include "common/logging.hpp"

namespace stonne {

const char *
layerKindName(LayerKind k)
{
    switch (k) {
      case LayerKind::Convolution: return "CONV";
      case LayerKind::Linear:      return "LINEAR";
      case LayerKind::Gemm:        return "GEMM";
      case LayerKind::SparseGemm:  return "SPGEMM";
      case LayerKind::MaxPool:     return "MAXPOOL";
    }
    return "?";
}

LayerSpec
LayerSpec::convolution(std::string name, Conv2dShape shape)
{
    shape.validate();
    LayerSpec l;
    l.name = std::move(name);
    l.kind = LayerKind::Convolution;
    l.conv = shape;
    return l;
}

LayerSpec
LayerSpec::linear(std::string name, index_t batch, index_t in, index_t out)
{
    fatalIf(batch <= 0 || in <= 0 || out <= 0,
            "linear layer dims must be positive");
    LayerSpec l;
    l.name = std::move(name);
    l.kind = LayerKind::Linear;
    l.gemm = GemmDims{out, batch, in};
    return l;
}

LayerSpec
LayerSpec::gemmLayer(std::string name, index_t m, index_t n, index_t k)
{
    fatalIf(m <= 0 || n <= 0 || k <= 0, "GEMM dims must be positive");
    LayerSpec l;
    l.name = std::move(name);
    l.kind = LayerKind::Gemm;
    l.gemm = GemmDims{m, n, k};
    return l;
}

LayerSpec
LayerSpec::sparseGemm(std::string name, index_t m, index_t n, index_t k)
{
    LayerSpec l = gemmLayer(std::move(name), m, n, k);
    l.kind = LayerKind::SparseGemm;
    return l;
}

LayerSpec
LayerSpec::maxPool(std::string name, Conv2dShape input_shape, index_t window,
                   index_t stride)
{
    fatalIf(window <= 0 || stride <= 0,
            "pool window/stride must be positive");
    LayerSpec l;
    l.name = std::move(name);
    l.kind = LayerKind::MaxPool;
    l.conv = input_shape;
    l.pool_window = window;
    l.pool_stride = stride;
    return l;
}

Conv2dShape
gemmAsConv(const GemmDims &g)
{
    Conv2dShape shape;
    shape.C = g.k;
    shape.K = g.m;
    shape.Y = g.n;
    return shape;
}

GemmDims
LayerSpec::gemmView() const
{
    switch (kind) {
      case LayerKind::Convolution:
        return GemmDims{
            conv.kPerGroup(),
            conv.N * conv.outX() * conv.outY(),
            conv.R * conv.S * conv.cPerGroup(),
        };
      case LayerKind::MaxPool: {
        const index_t xo = (conv.X - pool_window) / pool_stride + 1;
        const index_t yo = (conv.Y - pool_window) / pool_stride + 1;
        return GemmDims{
            conv.C,
            conv.N * xo * yo,
            pool_window * pool_window,
        };
      }
      case LayerKind::Linear:
      case LayerKind::Gemm:
      case LayerKind::SparseGemm:
        return gemm;
    }
    return gemm;
}

index_t
LayerSpec::macs() const
{
    if (kind == LayerKind::Convolution)
        return conv.macs();
    const GemmDims g = gemmView();
    if (kind == LayerKind::MaxPool)
        return g.m * g.n * g.k; // comparator operations
    return g.m * g.n * g.k;
}

void
LayerSpec::validate() const
{
    switch (kind) {
      case LayerKind::Convolution:
        conv.validate();
        break;
      case LayerKind::MaxPool:
        conv.validate();
        fatalIf(pool_window <= 0 || pool_stride <= 0,
                "pool window/stride must be positive");
        fatalIf(conv.X < pool_window || conv.Y < pool_window,
                "pool window larger than input");
        break;
      case LayerKind::Linear:
      case LayerKind::Gemm:
      case LayerKind::SparseGemm:
        fatalIf(gemm.m <= 0 || gemm.n <= 0 || gemm.k <= 0,
                "GEMM dims must be positive");
        break;
    }
}

} // namespace stonne
