/**
 * @file
 * Linear Reduction Network (LRN) — rigid-accelerator reduction.
 *
 * The linear accumulate-and-shift chain used by the TPU, Eyeriss and
 * ShiDianNao: each product is accumulated into the running value in
 * sequence. Fixed cluster boundaries only (the systolic engine arranges
 * reductions along array columns). A cluster of n products costs n - 1
 * serial additions with latency n - 1 when not overlapped.
 */

#ifndef STONNE_NETWORK_RN_LINEAR_HPP
#define STONNE_NETWORK_RN_LINEAR_HPP

#include "network/unit.hpp"

namespace stonne {

/** TPU-style linear accumulation chain. */
class LinearReductionNetwork final : public ReductionNetwork
{
  public:
    LinearReductionNetwork(index_t ms_size, StatsRegistry &stats);

    void bulkReduce(index_t clusters, index_t cluster_size) override;
    index_t latency(index_t cluster_size) const override;
    bool supportsVariableClusters() const override { return false; }
    bool supportsAccumulation() const override { return true; }

    /** Account `n` per-PE accumulator firings (OS dataflow MACs). */
    void accumulate(index_t n) override;

    count_t adderOps() const { return adder_ops_->value; }

    std::string name() const override { return "rn_linear"; }

    /** Issue/activity state for watchdog deadlock snapshots. */
    void dumpState(std::ostream &os) const override;

  private:
    StatCounter *adder_ops_;
    StatCounter *pipeline_occ_;
};

} // namespace stonne

#endif // STONNE_NETWORK_RN_LINEAR_HPP
