/**
 * @file
 * Dense memory controller (Section IV-B).
 *
 * Orchestrates data based on a fixed tile partition (mRNA-style): the
 * Tile defines clusters (virtual neurons) of T_R*T_S*T_C multipliers and
 * T_G*T_K*T_N*T_X'*T_Y' clusters mapped simultaneously. Folding iterates
 * a cluster over a larger dot product, accumulating psums at the RN
 * collection point (ART+ACC / FAN / LRN) or round-tripping them through
 * the GB for the plain ART+DIST.
 *
 * The controller implements both the flexible pipeline (tree / Benes DN)
 * and the rigid systolic pipeline (point-to-point DN) — the composition
 * is selected from the hardware configuration, as in Table IV.
 *
 * Timing is simulated cycle by cycle: each compute step's operands are
 * shared by multicast across the T_K clusters and reused over the
 * neighbour-forwarding links (LMN sliding window), and only the rest
 * stream through the bandwidth-limited GB/DN pipeline. The operand
 * counts come from a per-layer table over (fold, x block, y block).
 * Functional values bit-match the CPU reference because every output is
 * reduced in canonical (channel, row, column) order.
 */

#ifndef STONNE_CONTROLLER_DENSE_CONTROLLER_HPP
#define STONNE_CONTROLLER_DENSE_CONTROLLER_HPP

#include <string>
#include <vector>

#include "common/config.hpp"
#include "controller/mapper.hpp"
#include "controller/phase.hpp"
#include "controller/result.hpp"
#include "mem/dram.hpp"
#include "mem/global_buffer.hpp"
#include "network/dn.hpp"
#include "network/mn_array.hpp"
#include "network/systolic.hpp"
#include "network/unit.hpp"
#include "tensor/tensor.hpp"

namespace stonne {

class EventEngine;
class Watchdog;
class FaultInjector;
class Tracer;

/** mRNA-style fixed-tile dense memory controller. */
class DenseController : public Checkpointable
{
  public:
    /**
     * @param engine the delivery/drain engine every streaming phase
     *        goes through (owned by the Accelerator) — the single
     *        place components are ticked from
     * @param watchdog optional progress watchdog ticked by the delivery
     *        and drain loops (owned by the Accelerator)
     * @param faults optional fault injector applied to the flit stream
     * @param trace optional cycle-level tracer (owned by the
     *        Accelerator when `trace = ON`)
     */
    DenseController(const HardwareConfig &cfg, EventEngine &engine,
                    DistributionNetwork &dn, MultiplierArray &mn,
                    ReductionNetwork &rn, GlobalBuffer &gb, Dram &dram,
                    Watchdog *watchdog = nullptr,
                    FaultInjector *faults = nullptr,
                    Tracer *trace = nullptr);

    /**
     * Run a convolution layer. Every run* call takes an empty output
     * to mean statistics only: the timing and counters are the same,
     * and the functional result, with the operand lowering that only
     * feeds it, is skipped.
     * @param input (N, C, X, Y); @param weights (K, C/G, R, S)
     * @param bias (K) or empty; @param output out, (N, K, X', Y')
     */
    ControllerResult runConvolution(const LayerSpec &layer, const Tile &tile,
                                    const Tensor &input,
                                    const Tensor &weights, const Tensor &bias,
                                    Tensor &output);

    /** Run a dense GEMM: c(M x N) = a(M x K) * b(K x N); b may be
     *  empty when c is. */
    ControllerResult runGemm(const LayerSpec &layer, const Tile &tile,
                             const Tensor &a, const Tensor &b, Tensor &c);

    /**
     * Run a fully-connected layer.
     * @param input (N, C); @param weights (K, C); @param bias (K) or
     * empty; @param output out, (N, K)
     */
    ControllerResult runLinear(const LayerSpec &layer, const Tile &tile,
                               const Tensor &input, const Tensor &weights,
                               const Tensor &bias, Tensor &output);

    /**
     * Run max pooling on the flexible fabric (MAX-configured RN
     * clusters). Unsupported on the systolic composition.
     * @param input (N, C, X, Y); @param output out, (N, C, X', Y')
     */
    ControllerResult runMaxPool(const LayerSpec &layer, const Tensor &input,
                                Tensor &output);

    const Mapper &mapper() const { return mapper_; }

    /** Current execution phase, exposed in watchdog deadlock reports. */
    std::string phase() const { return phase_.str(); }

    /**
     * Serialize the controller phase. Delivery cursors are
     * operation-local (checkpoints land at operation boundaries, where
     * the controller is quiescent), so the phase is the only state
     * that crosses a snapshot.
     */
    void saveState(ArchiveWriter &ar) const override { phase_.save(ar); }

    void loadState(ArchiveReader &ar) override { phase_.load(ar); }

  protected:
    /** Flexible-pipeline convolution timing (tree / Benes DN): it
     *  reads only the shape, the tile and the input's size. */
    ControllerResult runConvFlexible(const Conv2dShape &shape,
                                     const Tile &tile, index_t input_elems);

    /** Rigid systolic convolution (im2col + OS array). */
    ControllerResult runConvSystolic(const Conv2dShape &shape,
                                     const Tensor &input,
                                     const Tensor &weights,
                                     const Tensor &bias, Tensor &output);

    /** Systolic GEMM with stats plumbing: A is read in place, the
     *  (A.cols x n) B by column panels, into the row-major (A.rows x n)
     *  c, or nowhere when c is null (see SystolicArray::run). */
    ControllerResult runGemmSystolic(MatrixView a, index_t n,
                                     const PanelSource &b, bool b_finite,
                                     float *c);

    /** Change phase: watchdog reports see it, the tracer spans it. */
    void setPhase(const char *phase);

    /** Advance the trace clock over a closed-form region (if tracing). */
    void traceAdvance(cycle_t cycles);

    const HardwareConfig &config() const { return cfg_; }
    DistributionNetwork &dn() { return dn_; }
    MultiplierArray &mn() { return mn_; }
    ReductionNetwork &rn() { return rn_; }
    GlobalBuffer &gb() { return gb_; }
    Dram &dram() { return dram_; }

  private:
    HardwareConfig cfg_;
    EventEngine &engine_;
    DistributionNetwork &dn_;
    MultiplierArray &mn_;
    ReductionNetwork &rn_;
    GlobalBuffer &gb_;
    Dram &dram_;
    Watchdog *wd_;
    FaultInjector *faults_;
    Tracer *trace_;
    Mapper mapper_;
    ControllerPhase phase_;
};

} // namespace stonne

#endif // STONNE_CONTROLLER_DENSE_CONTROLLER_HPP
