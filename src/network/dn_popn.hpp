/**
 * @file
 * Point-to-Point Network (PoPN) distribution fabric — systolic-style.
 *
 * Dedicated unicast links from the Global Buffer edge into the array, the
 * building block of TPU-like systolic interconnects. No multicast: a
 * package whose destination range spans more than one switch is rejected
 * as a structural violation (the dense controller replicates the data
 * instead, which is why systolic arrays need full edge bandwidth).
 */

#ifndef STONNE_NETWORK_DN_POPN_HPP
#define STONNE_NETWORK_DN_POPN_HPP

#include "network/unit.hpp"

namespace stonne {

/** Unicast-only point-to-point injection links. */
class PointToPointNetwork final : public DistributionNetwork
{
  public:
    PointToPointNetwork(index_t ms_size, index_t bandwidth,
                        StatsRegistry &stats);

    index_t injectBulk(index_t n, index_t fanout,
                       PackageKind kind) override;
    void bulkAdvance(cycle_t n_cycles, index_t n_packages, index_t fanout,
                     PackageKind kind) override;

    std::string name() const override { return "dn_popn"; }

    /** Issue/activity state for watchdog deadlock snapshots. */
    void dumpState(std::ostream &os) const override;

    count_t packagesDelivered() const { return packages_->value; }
    count_t stalls() const { return stalls_->value; }

  private:
    StatCounter *packages_;
    StatCounter *link_hops_;
    StatCounter *stalls_;
};

} // namespace stonne

#endif // STONNE_NETWORK_DN_POPN_HPP
