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
 * Stateless across layers except for the pending auto-tuner summary
 * (stamped onto the next operation's SimulationResult), so a fresh
 * executor per forward pass behaves identically to a shared one.
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

  private:
    const Tensor &resolve(int idx, const Tensor &model_input,
                          const std::map<int, Tensor> &saved) const;

    void recordSim(const std::string &name, OpType op,
                   const SimulationResult &sim);
    void recordNative(const std::string &name, OpType op);

    std::optional<Tile> tuneTile(const LayerSpec &spec);
    SimulationResult stampDse(SimulationResult sim);

    Tensor runLinear(const Tensor &in, const Tensor &w, const Tensor &bias,
                     const std::string &name);
    Tensor runGemm(const Tensor &a, const Tensor &b,
                   const std::string &name);

    const DnnModel &model_;
    Stonne &stonne_;
    explore::Explorer *tuner_;
    LayerExecOptions opts_;
    std::vector<LayerRunRecord> *records_;
    /** Tuning summary awaiting its operation's SimulationResult. */
    std::optional<DseSummary> pending_dse_;
};

} // namespace stonne

#endif // STONNE_FRONTEND_LAYER_EXEC_HPP
