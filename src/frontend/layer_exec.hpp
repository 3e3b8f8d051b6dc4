/**
 * @file
 * Single-layer executor: runs one DnnLayer of a model on one simulated
 * accelerator instance (or natively for the CPU reference path).
 *
 * The ModelRunner gives every core its own executor and schedules
 * layers across them; its native reference path runs the same executor
 * without offloading. Anything that changes how a layer is lowered onto
 * the accelerator belongs here, not in the runner.
 */

#ifndef STONNE_FRONTEND_LAYER_EXEC_HPP
#define STONNE_FRONTEND_LAYER_EXEC_HPP

#include <map>
#include <optional>
#include <vector>

#include "common/json_writer.hpp"
#include "engine/stonne_api.hpp"
#include "explore/explorer.hpp"
#include "frontend/dnn_layer.hpp"

namespace stonne {

/** Record of one operation executed during a simulated inference. */
struct LayerRunRecord {
    std::string name;
    OpType op;
    bool offloaded = false;
    SimulationResult sim; //!< valid when offloaded
    /** The tuner's TuneReport::json() when the tile was auto-tuned
     *  (`autotune = ON`); null otherwise. */
    JsonValue tune;
};

/** How the executor lowers layers (mirrors the ModelRunner knobs). */
struct LayerExecOptions {
    bool simulate = true;          //!< offload to the accelerator
    bool snapea_early_exit = true; //!< SNAPEA cut-off for ReLU-gated convs
    bool offload_pooling = true;   //!< max pool on the accelerator
};

/**
 * Executes individual layers of one model on one Stonne instance.
 *
 * Stateless across layers, so a fresh executor per forward pass (or per
 * K-split shard) behaves identically to a shared one.
 */
class LayerExecutor
{
  public:
    /**
     * @param model the network (must outlive the executor; consulted
     *              for the ReLU-follows-conv SNAPEA peek)
     * @param stonne the accelerator instance layers are offloaded to
     * @param tuner optional mapping auto-tuner (nullptr = fixed tiles)
     * @param opts lowering knobs
     * @param records per-operation record sink (nullptr = don't record)
     */
    LayerExecutor(const DnnModel &model, Stonne &stonne,
                  explore::Explorer *tuner, const LayerExecOptions &opts,
                  std::vector<LayerRunRecord> *records);

    /**
     * Run layer `i`. `cur` is the previous layer's output,
     * `model_input` the forward pass input, `saved` the save_output
     * skip-link tensors; the layer's own input_from/operand_from
     * references are resolved against these. Returns the layer output.
     */
    Tensor runLayer(std::size_t i, const Tensor &cur,
                    const Tensor &model_input,
                    const std::map<int, Tensor> &saved);

    /**
     * Convolution `spec` (layer `i` of the model, or a K-split shard of
     * it) over `in` with filters `w` and bias `bias`. The SNAPEA cut-off
     * applies when layer `i + 1` is a ReLU.
     */
    Tensor runConv(std::size_t i, const LayerSpec &spec, const Tensor &in,
                   const Tensor &w, const Tensor &bias);

    /** Linear layer `name`: in (batch x in) times w^T (out x in). */
    Tensor runLinear(const Tensor &in, const Tensor &w, const Tensor &bias,
                     const std::string &name);

  private:
    const Tensor &resolve(int idx, const Tensor &model_input,
                          const std::map<int, Tensor> &saved) const;

    /** Run the configured operation and record it; returns its output. */
    Tensor runRecorded(const std::string &name, OpType op, JsonValue tune);
    void recordNative(const std::string &name, OpType op);

    /** The tuned tile of `spec` (none without a tuner); its report goes
     *  to `tune`. */
    std::optional<Tile> tuneTile(const LayerSpec &spec, JsonValue &tune);

    Tensor runGemm(const Tensor &a, const Tensor &b,
                   const std::string &name);

    const DnnModel &model_;
    Stonne &stonne_;
    explore::Explorer *tuner_;
    LayerExecOptions opts_;
    std::vector<LayerRunRecord> *records_;
};

} // namespace stonne

#endif // STONNE_FRONTEND_LAYER_EXEC_HPP
