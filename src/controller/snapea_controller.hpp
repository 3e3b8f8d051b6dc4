/**
 * @file
 * SNAPEA memory controller — use case 2's back-end extension.
 *
 * SNAPEA (SnaPEA, ISCA'18) exploits the fact that CNN activations are
 * non-negative: weights are statically reordered by sign (positives
 * first), an index table locates each reordered weight's activation, and
 * the accumulation logic performs a single-bit sign check on the partial
 * sum. Once only negative weights remain and the psum is non-positive,
 * the output is guaranteed to be cut to zero by the following ReLU, so
 * the remaining computation and memory accesses are skipped (*exact
 * mode* — no accuracy loss).
 *
 * Following the paper's implementation notes, this controller is an
 * extension of the dense controller's flexible pipeline: a new memory
 * controller consuming the reorder table, the linear multiplier network
 * in output-stationary mode, and extended accumulation logic with the
 * negative-detection cut-off.
 */

#ifndef STONNE_CONTROLLER_SNAPEA_CONTROLLER_HPP
#define STONNE_CONTROLLER_SNAPEA_CONTROLLER_HPP

#include <string>
#include <vector>

#include "common/config.hpp"
#include "controller/layer.hpp"
#include "controller/phase.hpp"
#include "controller/result.hpp"
#include "mem/dram.hpp"
#include "mem/global_buffer.hpp"
#include "network/mn_array.hpp"
#include "network/unit.hpp"
#include "tensor/tensor.hpp"

namespace stonne {

/**
 * Static weight reordering of SNAPEA: per filter, the indices of the
 * non-zero window weights, positives first by descending value, then
 * negatives by descending magnitude, plus the position of the first
 * strictly negative weight (the point after which a non-positive psum
 * can never recover). Pruned (zero) weights are known statically and
 * dropped from the stream — they contribute nothing to the psum, for
 * the SNAPEA architecture and its baseline alike.
 *
 * The order is total over every bit pattern, since DRAM bit flips can
 * reach the weights before the table is built: +-0 is pruned, a NaN
 * leads its sign's group (ahead of that sign's infinity), and equal
 * weights keep ascending index order. `first_negative` ignores NaN (a
 * NaN is not below zero), so every weight from it on is negative.
 */
struct SnapeaReorderTable {
    /** Per filter: non-zero window indices in descending-weight order. */
    std::vector<std::vector<index_t>> order;

    /** Per filter: first index in `order` holding a negative weight
     *  (== order size when the filter has no negative weights). */
    std::vector<index_t> first_negative;

    /** Longest per-filter non-zero stream. */
    index_t maxLength() const;

    /** Build the table from a (K, C/G, R, S) weight tensor. */
    static SnapeaReorderTable build(const Tensor &weights);
};

class EventEngine;
class Tracer;

/** SNAPEA-like controller with early negative cut-off (exact mode). */
class SnapeaController : public Checkpointable
{
  public:
    /**
     * @param engine the delivery/drain engine every streaming phase
     *        goes through (owned by the Accelerator) — the single
     *        place components are ticked from, with the watchdog and
     *        fault injector it was given
     * @param trace optional cycle-level tracer (owned by the
     *        Accelerator when `trace = ON`)
     */
    SnapeaController(const HardwareConfig &cfg, EventEngine &engine,
                     DistributionNetwork &dn, MultiplierArray &mn,
                     ReductionNetwork &rn, GlobalBuffer &gb, Dram &dram,
                     Tracer *trace = nullptr);

    /**
     * Run a convolution with sign-sorted weight streaming.
     *
     * @param table the prior-simulation reorder table (front-end pass)
     * @param early_exit true for the full SNAPEA architecture; false for
     *        the baseline that runs the entire execution
     * @param output (N, K, X', Y'); cut windows emit their non-positive
     *        psum, which the following ReLU zeroes — callers compare
     *        post-ReLU
     */
    ControllerResult runConvolution(const LayerSpec &layer,
                                    const Tensor &input,
                                    const Tensor &weights,
                                    const Tensor &bias,
                                    const SnapeaReorderTable &table,
                                    bool early_exit, Tensor &output);

    /** Current execution phase, exposed in watchdog deadlock reports. */
    std::string phase() const { return phase_.str(); }

    /** Serialize the controller phase (see DenseController::saveState). */
    void saveState(ArchiveWriter &ar) const override { phase_.save(ar); }

    void loadState(ArchiveReader &ar) override { phase_.load(ar); }

  private:
    /** Change phase: watchdog reports see it, the tracer spans it. */
    void setPhase(const char *phase);

    HardwareConfig cfg_;
    EventEngine &engine_;
    DistributionNetwork &dn_;
    MultiplierArray &mn_;
    ReductionNetwork &rn_;
    GlobalBuffer &gb_;
    Dram &dram_;
    Tracer *trace_;
    ControllerPhase phase_;
};

} // namespace stonne

#endif // STONNE_CONTROLLER_SNAPEA_CONTROLLER_HPP
