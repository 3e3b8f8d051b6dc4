#include "engine/workload.hpp"

#include "common/logging.hpp"
#include "tensor/prune.hpp"

namespace stonne {

std::vector<NamedLayer>
fig1Layers()
{
    std::vector<NamedLayer> layers;

    auto conv = [](index_t r, index_t c, index_t k, index_t xy,
                   index_t g, index_t pad) {
        Conv2dShape s;
        s.R = r;
        s.S = r;
        s.C = c;
        s.K = k;
        s.G = g;
        s.X = xy;
        s.Y = xy;
        s.padding = pad;
        return s;
    };

    // Squeezenet: squeeze (1x1 bottleneck) and expand (3x3) convs.
    layers.push_back({"S-SC", LayerSpec::convolution(
        "squeeze", conv(1, 64, 16, 13, 1, 0))});
    layers.push_back({"S-EC", LayerSpec::convolution(
        "expand", conv(3, 16, 64, 13, 1, 1))});
    // Mobilenets: factorized (depthwise) conv and the classifier.
    layers.push_back({"M-FC", LayerSpec::convolution(
        "factorized", conv(3, 128, 128, 14, 128, 1))});
    layers.push_back({"M-L", LayerSpec::linear("m_fc", 1, 512, 100)});
    // Resnets-50: regular 3x3 conv and the classifier.
    layers.push_back({"R-C", LayerSpec::convolution(
        "res_conv", conv(3, 64, 64, 14, 1, 1))});
    layers.push_back({"R-L", LayerSpec::linear("r_fc", 1, 1024, 100)});
    // BERT: a transformer score GEMM and a feed-forward linear.
    layers.push_back({"B-TR", LayerSpec::gemmLayer("attn", 48, 48, 128)});
    layers.push_back({"B-L", LayerSpec::linear("b_ff", 48, 128, 256)});
    return layers;
}

LayerData
layerShapes(const LayerSpec &layer)
{
    LayerData d;
    switch (layer.kind) {
      case LayerKind::Convolution: {
        const Conv2dShape &c = layer.conv;
        d.input = Tensor({c.N, c.C, c.X, c.Y});
        d.weights = Tensor({c.K, c.cPerGroup(), c.R, c.S});
        d.bias = Tensor({c.K});
        break;
      }
      case LayerKind::Linear: {
        const GemmDims g = layer.gemm;
        d.input = Tensor({g.n, g.k});
        d.weights = Tensor({g.m, g.k});
        d.bias = Tensor({g.m});
        break;
      }
      case LayerKind::Gemm:
      case LayerKind::SparseGemm: {
        const GemmDims g = layer.gemm;
        d.input = Tensor({g.k, g.n});   // B operand
        d.weights = Tensor({g.m, g.k}); // A operand
        break;
      }
      case LayerKind::MaxPool: {
        const Conv2dShape &c = layer.conv;
        d.input = Tensor({c.N, c.C, c.X, c.Y});
        break;
      }
    }
    return d;
}

LayerData
makeLayerData(const LayerSpec &layer, double sparsity, std::uint64_t seed,
              double jitter)
{
    Rng rng(seed);
    LayerData d = layerShapes(layer);
    d.input.fillUniform(rng, 0.0f, 1.0f);
    if (!d.weights.empty())
        synthesizePrunedWeights(d.weights, rng, 0.2f, sparsity, jitter);
    if (!d.bias.empty())
        d.bias.fillUniform(rng, -0.05f, 0.05f);
    return d;
}

SimulationResult
runLayer(Stonne &st, const LayerSpec &layer, const LayerData &data,
         std::optional<Tile> tile)
{
    switch (layer.kind) {
      case LayerKind::Convolution:
        st.configureConv(layer, tile);
        break;
      case LayerKind::Linear:
        st.configureLinear(layer, tile);
        break;
      case LayerKind::Gemm:
        st.configureDmm(layer, tile);
        break;
      case LayerKind::SparseGemm:
        st.configureSpmm(layer);
        break;
      case LayerKind::MaxPool:
        st.configureMaxPool(layer);
        break;
    }
    st.configureData(data.input, data.weights, data.bias);
    return st.runOperation();
}

} // namespace stonne
