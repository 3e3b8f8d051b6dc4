/**
 * @file
 * Model zoo: the seven contemporary DNN models of Table I.
 *
 * Image classification: MobileNets-V1 (M), SqueezeNet (S), AlexNet (A),
 * ResNets-50 (R), VGG-16 (V). Object detection: SSD-MobileNets (S-M).
 * Language processing: BERT (B). Weights are synthetic (deterministic
 * seeds) and magnitude-pruned to the Table I sparsity ratios with
 * per-filter jitter, reproducing the non-uniform filter-size
 * distributions real pruned models exhibit (Figs 1c, 7, 9).
 *
 * Substitution note (see DESIGN.md): the paper runs the full-resolution
 * trained models (a 5-day experiment in the artifact); here the zoo
 * offers three scales — Full keeps the published shapes, Bench shrinks
 * spatial dimensions and channel counts so every experiment regenerates
 * in minutes while keeping layer types, topology and sparsity intact,
 * and Tiny is for unit tests.
 */

#ifndef STONNE_FRONTEND_MODEL_ZOO_HPP
#define STONNE_FRONTEND_MODEL_ZOO_HPP

#include <vector>

#include "common/rng.hpp"
#include "frontend/dnn_layer.hpp"

namespace stonne {

/** The seven Table I models. */
enum class ModelId {
    MobileNetV1,
    SqueezeNet,
    AlexNet,
    ResNet50,
    Vgg16,
    SsdMobileNet,
    Bert,
};

/** Model construction scale (see file comment). */
enum class ModelScale {
    Tiny,  //!< unit-test size
    Bench, //!< benchmark size: minutes instead of days
    Full,  //!< published layer shapes
};

/** All seven models in Table I order. */
std::vector<ModelId> allModels();

/** The four purely convolutional models of use case 2 (A, S, V, R). */
std::vector<ModelId> cnnModels();

/** Long name, e.g. "Mobilenets-V1". */
const char *modelName(ModelId id);

/** Table I short key: M, S, A, R, V, S-M, B. */
const char *modelShortName(ModelId id);

/** Table I target weight sparsity ratio. */
double modelSparsity(ModelId id);

/**
 * Build a model with pruned synthetic weights. `batch` sets the input
 * batch N of the vision models (every conv layer becomes batch-aware);
 * BERT's rank-2 (seq, hidden) input carries no batch axis, so batch > 1
 * is rejected there.
 *
 * The most recently built model is kept (a LastMemo), and asking for
 * the same (id, scale, seed, batch) again returns a copy of it whose
 * tensors share its storage (copy-on-write, so writing to one never
 * shows through the other), so a sweep of one model over several
 * fabrics synthesises it once. Safe to call from several threads.
 */
DnnModel buildModel(ModelId id, ModelScale scale, std::uint64_t seed = 7,
                    index_t batch = 1);

/**
 * A deterministic input sample: (batch, C, X, Y) in [0, 1] for the
 * vision models (non-negative, as SNAPEA requires), (seq, hidden) for
 * BERT.
 */
Tensor makeModelInput(ModelId id, ModelScale scale, std::uint64_t seed = 11,
                      index_t batch = 1);

} // namespace stonne

#endif // STONNE_FRONTEND_MODEL_ZOO_HPP
