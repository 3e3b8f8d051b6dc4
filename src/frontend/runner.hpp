/**
 * @file
 * Full-model runner: drives complete DNN inference through the STONNE
 * API, layer by layer (the execution flow of Figure 2b).
 *
 * Compute-intensive operations (convolutions, linear layers, the GEMMs
 * inside self-attention, optionally max pooling) are offloaded to the
 * simulated accelerator; everything else (ReLU, softmax, layer norm,
 * residual adds, reshapes) runs natively, exactly as the paper's
 * modified PyTorch does. runNative() is the pure-CPU reference path used
 * for functional validation.
 */

#ifndef STONNE_FRONTEND_RUNNER_HPP
#define STONNE_FRONTEND_RUNNER_HPP

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "engine/stonne_api.hpp"
#include "explore/explorer.hpp"
#include "frontend/dnn_layer.hpp"
#include "frontend/layer_exec.hpp"

namespace stonne {

/** Runs a DnnModel on a simulated accelerator instance. */
class ModelRunner
{
  public:
    /**
     * @param model the network (must outlive the runner)
     * @param cfg hardware configuration of the simulated accelerator
     */
    ModelRunner(const DnnModel &model, const HardwareConfig &cfg);

    /** Simulated inference: offloads to the accelerator. */
    Tensor run(const Tensor &input);

    /**
     * Resume a simulated inference from a ModelRunner checkpoint
     * written by a previous (possibly killed) run with
     * `checkpoint = ON`. The runner must wrap the same model and a
     * structurally identical configuration; the forward pass continues
     * from the recorded layer boundary and completes bit-identically
     * to the uninterrupted run. Throws CheckpointError on mismatch,
     * corruption, or an engine-only snapshot.
     */
    Tensor resume(const std::string &path);

    /** Native CPU inference (the functional golden path). */
    Tensor runNative(const Tensor &input) const;

    /** Path of the last snapshot run() wrote ("" if none yet). */
    const std::string &lastCheckpointPath() const
    {
        return last_checkpoint_path_;
    }

    /** Per-operation records of the last run(). */
    const std::vector<LayerRunRecord> &records() const { return records_; }

    /** Aggregated simulation result of the last run(). */
    SimulationResult total() const;

    /** Sparse-controller filter scheduling policy (use case 3). */
    void setSchedulingPolicy(SchedulingPolicy policy,
                             std::uint64_t seed = 1);

    /** SNAPEA early cut-off (use case 2); applied only to ReLU-gated
     *  convolutions. */
    void setSnapeaEarlyExit(bool enabled) { snapea_early_exit_ = enabled; }

    /** Offload max pooling when the composition supports it. */
    void setOffloadPooling(bool enabled) { offload_pooling_ = enabled; }

    Stonne &stonne() { return stonne_; }

  private:
    /**
     * Forward-pass cursor: everything the layer loop needs to continue
     * from an arbitrary layer boundary. A checkpoint is exactly one of
     * these (plus the engine state and the per-layer records).
     */
    struct ForwardState {
        std::size_t next_layer = 0;
        Tensor input; //!< model input (layers can re-read it)
        Tensor cur;   //!< output of layer next_layer - 1
        std::map<int, Tensor> saved; //!< save_output skip-link tensors
    };

    Tensor forward(ForwardState st, bool simulate,
                   std::vector<LayerRunRecord> *records) const;

    /** Write a layer-boundary snapshot when the interval elapsed. */
    void maybeCheckpoint(const ForwardState &st,
                         const std::vector<LayerRunRecord> &records) const;

    const DnnModel &model_;
    mutable Stonne stonne_;
    /** Mapping auto-tuner, present only with `autotune = ON`. */
    mutable std::unique_ptr<explore::Explorer> tuner_;
    std::vector<LayerRunRecord> records_;
    bool snapea_early_exit_ = true;
    bool offload_pooling_ = true;

    mutable cycle_t last_ckpt_cycles_ = 0;
    mutable std::string last_checkpoint_path_;
};

} // namespace stonne

#endif // STONNE_FRONTEND_RUNNER_HPP
