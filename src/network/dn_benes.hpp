/**
 * @file
 * Benes Network (BN) distribution fabric — SIGMA-style.
 *
 * An N-input N-output non-blocking topology with 2*log2(N) + 1 levels of
 * N/2 tiny 2x2 switches. Because the network is non-blocking, any set of
 * at most `bandwidth` packages with disjoint destinations can be routed
 * in a single cycle. The price is paid in energy and area: every
 * traversal crosses all 2*log2(N) + 1 switch levels.
 */

#ifndef STONNE_NETWORK_DN_BENES_HPP
#define STONNE_NETWORK_DN_BENES_HPP

#include "network/unit.hpp"

namespace stonne {

/** SIGMA-style non-blocking Benes distribution network. */
class BenesDistributionNetwork final : public DistributionNetwork
{
  public:
    BenesDistributionNetwork(index_t ms_size, index_t bandwidth,
                             StatsRegistry &stats);

    index_t injectBulk(index_t n, index_t fanout,
                       PackageKind kind) override;
    void bulkAdvance(cycle_t n_cycles, index_t n_packages, index_t fanout,
                     PackageKind kind) override;

    std::string name() const override { return "dn_benes"; }

    /** Issue/activity state for watchdog deadlock snapshots. */
    void dumpState(std::ostream &os) const override;

    /** Switch levels: 2*log2(N) + 1. */
    index_t levels() const { return levels_; }

    /** Total 2x2 switches in the fabric (area model input). */
    index_t switchCount() const { return levels_ * (ms_size_ / 2); }

    count_t packagesDelivered() const { return packages_->value; }
    count_t stalls() const { return stalls_->value; }

  private:
    index_t levels_;
    StatCounter *packages_;
    StatCounter *switch_hops_;
    StatCounter *link_hops_;
    StatCounter *stalls_;
};

} // namespace stonne

#endif // STONNE_NETWORK_DN_BENES_HPP
