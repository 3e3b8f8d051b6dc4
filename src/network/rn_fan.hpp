/**
 * @file
 * Forwarding Adder Network (FAN) — SIGMA-style reduction network.
 *
 * SIGMA showed the ART's 3:1 adders are area/power inefficient and
 * replaced them with plain 2:1 adders plus forwarding links, keeping the
 * ability to form any number of dynamic-size clusters. Functionally
 * equivalent to ART for the engine; differs in adder activity accounting
 * (n - 1 two-input firings per cluster) and in the energy/area tables.
 */

#ifndef STONNE_NETWORK_RN_FAN_HPP
#define STONNE_NETWORK_RN_FAN_HPP

#include "network/unit.hpp"

namespace stonne {

/** SIGMA-style forwarding adder network with 2:1 adders. */
class FanReductionNetwork final : public ReductionNetwork
{
  public:
    FanReductionNetwork(index_t ms_size, StatsRegistry &stats);

    void bulkReduce(index_t clusters, index_t cluster_size) override;
    index_t latency(index_t cluster_size) const override;
    bool supportsVariableClusters() const override { return true; }
    bool supportsAccumulation() const override { return true; }

    /** Account accumulations at the collection point. */
    void accumulate(index_t n) override;

    /** Physical 2:1 adder nodes (area model input). */
    index_t adderCount() const { return ms_size_ - 1; }

    count_t adderOps() const { return adder_ops_->value; }

    std::string name() const override { return "rn_fan"; }

    /** Issue/activity state for watchdog deadlock snapshots. */
    void dumpState(std::ostream &os) const override;

  private:
    StatCounter *adder_ops_;
    StatCounter *accumulator_ops_;
    StatCounter *forward_hops_;
    StatCounter *pipeline_occ_;
};

} // namespace stonne

#endif // STONNE_NETWORK_RN_FAN_HPP
