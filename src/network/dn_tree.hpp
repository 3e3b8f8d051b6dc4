/**
 * @file
 * Tree Network (TN) distribution fabric — MAERI-style.
 *
 * A binary distribution tree over the multiplier switches, replicated once
 * per Global Buffer read port (so up to `bandwidth` packages issue per
 * cycle), providing single-cycle unicast / multicast / broadcast delivery
 * to contiguous leaf ranges. The memory controllers stream disjoint
 * ranges, so the bandwidth is the only per-cycle limit; a multicast
 * activates the switches of its spanning subtree.
 */

#ifndef STONNE_NETWORK_DN_TREE_HPP
#define STONNE_NETWORK_DN_TREE_HPP

#include "network/unit.hpp"

namespace stonne {

/** MAERI-style binary distribution tree. */
class TreeDistributionNetwork final : public DistributionNetwork
{
  public:
    /**
     * @param ms_size leaves (must be a power of two)
     * @param bandwidth packages per cycle (replicated trees / fat root)
     * @param stats registry for traversal counters
     */
    TreeDistributionNetwork(index_t ms_size, index_t bandwidth,
                            StatsRegistry &stats);

    index_t injectBulk(index_t n, index_t fanout,
                       PackageKind kind) override;
    void bulkAdvance(cycle_t n_cycles, index_t n_packages, index_t fanout,
                     PackageKind kind) override;

    std::string name() const override { return "dn_tree"; }

    /** Issue/activity state for watchdog deadlock snapshots. */
    void dumpState(std::ostream &os) const override;

    /** Tree depth: log2(ms_size) switch levels. */
    index_t levels() const { return levels_; }

    /** Switch hops a multicast to a leaf range of `fanout` occupies. */
    index_t traversalSwitches(index_t fanout) const;

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

#endif // STONNE_NETWORK_DN_TREE_HPP
