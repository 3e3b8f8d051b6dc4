/**
 * @file
 * Multiplier Network (MN): the array of multiplier switches.
 *
 * Two topologies from the paper:
 *  - Linear Multiplier Network (LMN): forwarding links between each pair
 *    of neighbouring multiplier switches exploit spatio-temporal reuse
 *    (the convolution sliding window), cutting DN and memory pressure.
 *  - Disabled Multiplier Network (DMN): no forwarding links; pure GEMM
 *    fabrics (SIGMA, SpArch) where sliding-window reuse does not exist.
 *
 * Multiplier switches also support a *forwarder* configuration that
 * passes psums from the GB into the RN so folding can resume partial
 * results (Section IV-A.2).
 */

#ifndef STONNE_NETWORK_MN_ARRAY_HPP
#define STONNE_NETWORK_MN_ARRAY_HPP

#include "common/config.hpp"
#include "network/unit.hpp"

namespace stonne {

/** Array of multiplier switches with optional neighbour forwarding. */
class MultiplierArray final : public Checkpointable
{
  public:
    MultiplierArray(index_t ms_size, MnType type, StatsRegistry &stats);

    /** Account `n` multiplications fired this cycle. */
    void fireMultipliers(index_t n);

    /**
     * Account `n_mults` multiplications spread over `n_cycles`
     * steady-state cycles — the closed-form equivalent of calling
     * fireMultipliers(n_mults / n_cycles) each cycle.
     */
    void bulkAdvance(cycle_t n_cycles, index_t n_mults);

    /** Account `n` operand hand-offs over neighbour forwarding links.
     *  Only legal on the linear topology. */
    void forwardOperands(index_t n);

    /** Account `n` operand hand-offs spread over `n_cycles` cycles — the
     *  closed-form equivalent of one forwardOperands() call per cycle. */
    void forwardOperandsBulk(cycle_t n_cycles, count_t n);

    /** Account `n` switches configured as psum forwarders this cycle. */
    void forwardPsums(index_t n);

    /** Whether neighbour forwarding links exist. */
    bool hasForwardingLinks() const { return type_ == MnType::Linear; }

    index_t msSize() const { return ms_size_; }
    MnType type() const { return type_; }

    count_t multOps() const { return mult_ops_->value; }
    count_t forwardOps() const { return forward_ops_->value; }

    /** Component instance name used in diagnostics. */
    std::string name() const { return "mn_array"; }

    /** Activity state for watchdog deadlock snapshots. */
    void dumpState(std::ostream &os) const;

    /** Every counter lives in the StatsRegistry: nothing to serialize. */
    void saveState(ArchiveWriter &) const override {}
    void loadState(ArchiveReader &) override {}

  private:
    index_t ms_size_;
    MnType type_;
    StatCounter *mult_ops_;
    StatCounter *forward_ops_;
    StatCounter *psum_forwards_;
    StatCounter *busy_cycles_;
};

} // namespace stonne

#endif // STONNE_NETWORK_MN_ARRAY_HPP
