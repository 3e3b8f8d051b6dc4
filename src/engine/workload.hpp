/**
 * @file
 * Shared synthetic-workload construction: named layer sets, operand
 * generation and one-call layer execution through the STONNE API.
 *
 * Lives in the library so the benchmark binaries (bench/), the
 * design-space search (src/explore) and the tests all build their
 * workloads through one construction path: the tuner's candidate
 * evaluations run exactly the simulation the benchmarks time.
 *
 * The eight Figure 1 layers (S-SC, S-EC, M-FC, M-L, R-C, R-L, B-TR,
 * B-L) are the representative layer types of Squeezenet, Mobilenets,
 * Resnets-50 and BERT, at the Bench scale of the model zoo.
 */

#ifndef STONNE_ENGINE_WORKLOAD_HPP
#define STONNE_ENGINE_WORKLOAD_HPP

#include <optional>
#include <string>
#include <vector>

#include "controller/layer.hpp"
#include "controller/tile.hpp"
#include "engine/stonne_api.hpp"
#include "tensor/tensor.hpp"

namespace stonne {

/** A layer with its paper tag (e.g. "S-SC"). */
struct NamedLayer {
    std::string tag;
    LayerSpec spec;
};

/** The eight Figure 1 layers at Bench scale. */
std::vector<NamedLayer> fig1Layers();

/** Operand bundle for one layer. */
struct LayerData {
    Tensor input;
    Tensor weights;
    Tensor bias;
};

/** A layer's operands at their shapes, all zeros. */
LayerData layerShapes(const LayerSpec &layer);

/**
 * Deterministic synthetic operands for a layer, with the weights
 * magnitude-pruned to `sparsity` (0 keeps them dense). `jitter` spreads
 * the per-filter density as real pruned networks do (Fig 7b).
 */
LayerData makeLayerData(const LayerSpec &layer, double sparsity,
                        std::uint64_t seed, double jitter = 0.15);

/**
 * Run one layer on an accelerator instance via the STONNE API,
 * dispatching on the layer kind. An explicit `tile` overrides the
 * greedy mapper's choice for the dense-controller kinds that take one
 * (Convolution, Linear, Gemm); it is ignored for the rest.
 */
SimulationResult runLayer(Stonne &st, const LayerSpec &layer,
                          const LayerData &data,
                          std::optional<Tile> tile = std::nullopt);

} // namespace stonne

#endif // STONNE_ENGINE_WORKLOAD_HPP
