#include "network/dn_tree.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace stonne {

TreeDistributionNetwork::TreeDistributionNetwork(index_t ms_size,
                                                 index_t bandwidth,
                                                 StatsRegistry &stats)
    : DistributionNetwork(DnKind::Tree, ms_size, bandwidth),
      levels_(log2Ceil(ms_size)),
      packages_(&stats.counter("dn.packages",
                               StatGroup::DistributionNetwork)),
      switch_hops_(&stats.counter("dn.switch_hops",
                                  StatGroup::DistributionNetwork)),
      link_hops_(&stats.counter("dn.link_hops",
                                StatGroup::DistributionNetwork)),
      stalls_(&stats.counter("dn.stalls", StatGroup::DistributionNetwork))
{
    inject_queue_occ_ = &stats.counter("dn.inject_queue_occ",
                                       StatGroup::DistributionNetwork,
                                       StatKind::Occupancy);
    fatalIf(ms_size <= 0 || (ms_size & (ms_size - 1)) != 0,
            "tree DN needs a power-of-two number of leaves");
    fatalIf(bandwidth <= 0 || bandwidth > ms_size,
            "tree DN bandwidth out of range");
}

index_t
TreeDistributionNetwork::traversalSwitches(index_t fanout) const
{
    // A multicast to a contiguous range of `fanout` leaves activates the
    // switches of the spanning subtree: roughly one path down from the
    // root (levels_) plus one switch per additional covered leaf.
    return levels_ + (fanout - 1);
}

index_t
TreeDistributionNetwork::injectBulk(index_t n, index_t fanout,
                                    PackageKind kind)
{
    (void)kind;
    panicIf(n < 0 || fanout <= 0 || fanout > ms_size_,
            "tree DN bulk injection with invalid arguments");
    const index_t accepted =
        std::min(n, bandwidth_ - issued_this_cycle_);
    if (accepted <= 0) {
        if (n > 0)
            ++stalls_->value;
        return 0;
    }
    issued_this_cycle_ += accepted;
    packages_->value += static_cast<count_t>(accepted);
    const index_t hops = traversalSwitches(fanout);
    switch_hops_->value += static_cast<count_t>(accepted * hops);
    link_hops_->value += static_cast<count_t>(accepted * (hops + fanout));
    if (accepted < n)
        ++stalls_->value;
    return accepted;
}

void
TreeDistributionNetwork::bulkAdvance(cycle_t n_cycles, index_t n_packages,
                                     index_t fanout, PackageKind kind)
{
    (void)kind;
    panicIf(n_packages < 0 || fanout <= 0 || fanout > ms_size_,
            "tree DN bulk advance with invalid arguments");
    panicIf(static_cast<count_t>(n_packages)
                > n_cycles * static_cast<count_t>(bandwidth_),
            "tree DN bulk advance exceeds bandwidth: ", n_packages,
            " packages in ", n_cycles, " cycles at ", bandwidth_,
            " packages/cycle");
    packages_->value += static_cast<count_t>(n_packages);
    const index_t hops = traversalSwitches(fanout);
    switch_hops_->value += static_cast<count_t>(n_packages * hops);
    link_hops_->value += static_cast<count_t>(n_packages * (hops + fanout));
}

void
TreeDistributionNetwork::dumpState(std::ostream &os) const
{
    os << name() << ": " << ms_size_ << " leaves over " << levels_
       << " levels, bandwidth " << bandwidth_ << ", issued this cycle "
       << issued_this_cycle_ << ", delivered " << packages_->value
       << ", stalls " << stalls_->value << "\n";
}

} // namespace stonne
