#include "network/dn_popn.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace stonne {

PointToPointNetwork::PointToPointNetwork(index_t ms_size, index_t bandwidth,
                                         StatsRegistry &stats)
    : DistributionNetwork(DnKind::PointToPoint, ms_size, bandwidth),
      packages_(&stats.counter("dn.packages",
                               StatGroup::DistributionNetwork)),
      link_hops_(&stats.counter("dn.link_hops",
                                StatGroup::DistributionNetwork)),
      stalls_(&stats.counter("dn.stalls", StatGroup::DistributionNetwork))
{
    inject_queue_occ_ = &stats.counter("dn.inject_queue_occ",
                                       StatGroup::DistributionNetwork,
                                       StatKind::Occupancy);
    fatalIf(ms_size <= 0, "point-to-point DN needs endpoints");
    fatalIf(bandwidth <= 0 || bandwidth > ms_size,
            "point-to-point DN bandwidth out of range");
}

index_t
PointToPointNetwork::injectBulk(index_t n, index_t fanout, PackageKind kind)
{
    (void)kind;
    panicIf(n < 0, "point-to-point DN bulk injection with invalid count");
    fatalIf(fanout != 1,
            "point-to-point DN only supports unicast delivery");
    const index_t accepted =
        std::min(n, bandwidth_ - issued_this_cycle_);
    if (accepted <= 0) {
        if (n > 0)
            ++stalls_->value;
        return 0;
    }
    issued_this_cycle_ += accepted;
    packages_->value += static_cast<count_t>(accepted);
    link_hops_->value += static_cast<count_t>(accepted);
    if (accepted < n)
        ++stalls_->value;
    return accepted;
}

void
PointToPointNetwork::bulkAdvance(cycle_t n_cycles, index_t n_packages,
                                 index_t fanout, PackageKind kind)
{
    (void)kind;
    panicIf(n_packages < 0,
            "point-to-point DN bulk advance with invalid count");
    fatalIf(fanout != 1,
            "point-to-point DN only supports unicast delivery");
    panicIf(static_cast<count_t>(n_packages)
                > n_cycles * static_cast<count_t>(bandwidth_),
            "point-to-point DN bulk advance exceeds bandwidth: ",
            n_packages, " packages in ", n_cycles, " cycles at ",
            bandwidth_, " packages/cycle");
    packages_->value += static_cast<count_t>(n_packages);
    link_hops_->value += static_cast<count_t>(n_packages);
}

void
PointToPointNetwork::dumpState(std::ostream &os) const
{
    os << name() << ": " << ms_size_ << " links, bandwidth " << bandwidth_
       << ", issued this cycle " << issued_this_cycle_ << ", delivered "
       << packages_->value << ", stalls " << stalls_->value << "\n";
}

} // namespace stonne
