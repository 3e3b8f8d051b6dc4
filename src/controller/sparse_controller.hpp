/**
 * @file
 * Sparse memory controller (Section IV-B) — SIGMA-style SpMM.
 *
 * Runs GEMM operations over compressed (CSR or bitmap) stationary MK
 * matrices. Unlike the dense controller's fixed tiles, cluster sizes here
 * follow the *actual* distribution of non-zeros: filters are packed into
 * mapping rounds (see scheduler.hpp), the Benes network loads the
 * stationary non-zeros and multicasts the streaming KN operands, and the
 * FAN reduces each variable-size cluster. This data dependence is exactly
 * what Figure 1c shows analytical models cannot capture.
 */

#ifndef STONNE_CONTROLLER_SPARSE_CONTROLLER_HPP
#define STONNE_CONTROLLER_SPARSE_CONTROLLER_HPP

#include <string>

#include "common/config.hpp"
#include "controller/phase.hpp"
#include "controller/result.hpp"
#include "controller/scheduler.hpp"
#include "mem/dram.hpp"
#include "mem/global_buffer.hpp"
#include "network/dn.hpp"
#include "network/mn_array.hpp"
#include "network/unit.hpp"
#include "tensor/sparse.hpp"
#include "tensor/tensor.hpp"

namespace stonne {

class EventEngine;
class Watchdog;
class FaultInjector;
class Tracer;

/** SIGMA-style sparse memory controller. */
class SparseController : public Checkpointable
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
    SparseController(const HardwareConfig &cfg, EventEngine &engine,
                     DistributionNetwork &dn, MultiplierArray &mn,
                     ReductionNetwork &rn, GlobalBuffer &gb, Dram &dram,
                     Watchdog *watchdog = nullptr,
                     FaultInjector *faults = nullptr,
                     Tracer *trace = nullptr);

    /**
     * Run a sparse-dense GEMM: c(M x N) = a(M x K, CSR) * b(K x N), b
     * and c row-major. A null `c` skips the functional reduce and leaves
     * the timing and statistics as they are; `b.data` may then be null
     * too, unless activation skipping reads b's zeros.
     *
     * @param policy static filter scheduling policy (use case 3)
     * @param skip_zero_activations also exploit sparsity in b (skip
     *        multiplications whose streaming operand is exactly zero)
     * @param seed RNG seed for the Random policy
     */
    ControllerResult runSpMM(const CsrMatrix &a, MatrixView b, float *c,
                             SchedulingPolicy policy = SchedulingPolicy::None,
                             bool skip_zero_activations = false,
                             std::uint64_t seed = 1);

    /** Tensor front door; an empty `c` skips the functional reduce. */
    ControllerResult runSpMM(const CsrMatrix &a, const Tensor &b, Tensor &c,
                             SchedulingPolicy policy = SchedulingPolicy::None,
                             bool skip_zero_activations = false,
                             std::uint64_t seed = 1);

    /** Bitmap-format front door: converts and runs the CSR path. */
    ControllerResult runSpMM(const BitmapMatrix &a, const Tensor &b,
                             Tensor &c,
                             SchedulingPolicy policy = SchedulingPolicy::None,
                             bool skip_zero_activations = false,
                             std::uint64_t seed = 1);

    /** Dense front door: runs stationary(a). */
    ControllerResult runSpMMDense(const Tensor &a, const Tensor &b,
                                  Tensor &c,
                                  SchedulingPolicy policy =
                                      SchedulingPolicy::None,
                                  bool skip_zero_activations = false,
                                  std::uint64_t seed = 1);

    /** A dense MK operand compressed in the configured format, as the
     *  CSR datapath reads it. */
    CsrMatrix stationary(const Tensor &a) const;

    /** Rounds the last runSpMM call executed (inspection / Fig 7). */
    const std::vector<SparseRound> &lastRounds() const { return rounds_; }

    /** Current execution phase, exposed in watchdog deadlock reports. */
    std::string phase() const { return phase_.str(); }

    /**
     * Serialize the controller phase. The per-operation round plan
     * (lastRounds()) is rebuilt by the next runSpMM call and is not
     * part of the snapshot.
     */
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
    Watchdog *wd_;
    FaultInjector *faults_;
    Tracer *trace_;
    std::vector<SparseRound> rounds_;
    ControllerPhase phase_;
};

} // namespace stonne

#endif // STONNE_CONTROLLER_SPARSE_CONTROLLER_HPP
