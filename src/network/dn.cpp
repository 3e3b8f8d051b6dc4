#include "network/dn.hpp"

#include <algorithm>

#include "checkpoint/archive.hpp"
#include "common/logging.hpp"

namespace stonne {

namespace {

/** How a topology names itself in diagnostics. */
struct Names {
    const char *unit;      //!< component instance name
    const char *label;     //!< prefix of error messages
    const char *endpoints; //!< what its endpoints are called
};

Names
names(DnType type)
{
    switch (type) {
      case DnType::Tree:
        return {"dn_tree", "tree DN", "leaves"};
      case DnType::Benes:
        return {"dn_benes", "Benes DN", "endpoints"};
      case DnType::PointToPoint:
        break;
    }
    return {"dn_popn", "point-to-point DN", "links"};
}

} // namespace

DistributionNetwork::DistributionNetwork(DnType type, index_t ms_size,
                                         index_t bandwidth,
                                         StatsRegistry &stats)
    : type_(type), ms_size_(ms_size), bandwidth_(bandwidth),
      levels_(levels(type, ms_size)),
      packages_(&stats.counter("dn.packages",
                               StatGroup::DistributionNetwork)),
      switch_hops_(type == DnType::PointToPoint
                       ? nullptr
                       : &stats.counter("dn.switch_hops",
                                        StatGroup::DistributionNetwork)),
      link_hops_(&stats.counter("dn.link_hops",
                                StatGroup::DistributionNetwork)),
      stalls_(&stats.counter("dn.stalls", StatGroup::DistributionNetwork)),
      inject_queue_occ_(&stats.counter("dn.inject_queue_occ",
                                       StatGroup::DistributionNetwork,
                                       StatKind::Occupancy))
{
    const Names n = names(type);
    if (type == DnType::PointToPoint)
        fatalIf(ms_size <= 0, n.label, " needs endpoints");
    else
        fatalIf(ms_size <= 0 || (ms_size & (ms_size - 1)) != 0, n.label,
                " needs a power-of-two number of ", n.endpoints);
    fatalIf(bandwidth <= 0 || bandwidth > ms_size, n.label,
            " bandwidth out of range");
}

index_t
DistributionNetwork::levels(DnType type, index_t ms_size)
{
    switch (type) {
      case DnType::Tree:
        return log2Ceil(ms_size);
      case DnType::Benes:
        return 2 * log2Ceil(ms_size) + 1;
      case DnType::PointToPoint:
        break;
    }
    return 0;
}

std::string
DistributionNetwork::name() const
{
    return names(type_).unit;
}

void
DistributionNetwork::checkRequest(index_t n, index_t fanout,
                                  const char *what) const
{
    // Open-coded: panicIf would build the message arguments on every
    // call of this hot path.
    if (type_ == DnType::PointToPoint && fanout != 1)
        fatal("point-to-point DN only supports unicast delivery");
    if (n < 0 || fanout <= 0 || fanout > ms_size_)
        panic(names(type_).label, " ", what, " with invalid arguments");
}

void
DistributionNetwork::countDelivered(index_t n, index_t fanout)
{
    // A multicast to `fanout` endpoints activates the switches of its
    // spanning subtree: one path down (levels_) plus one switch per
    // additional endpoint, and one link into every endpoint.
    const index_t hops = traversalSwitches(fanout);
    packages_->value += static_cast<count_t>(n);
    if (switch_hops_ != nullptr)
        switch_hops_->value += static_cast<count_t>(n * hops);
    link_hops_->value += static_cast<count_t>(n * (hops + fanout));
}

index_t
DistributionNetwork::injectBulk(index_t n, index_t fanout)
{
    checkRequest(n, fanout, "bulk injection");
    const index_t accepted =
        std::min(n, bandwidth_ - issued_this_cycle_);
    if (accepted <= 0) {
        if (n > 0)
            ++stalls_->value;
        return 0;
    }
    issued_this_cycle_ += accepted;
    countDelivered(accepted, fanout);
    if (accepted < n)
        ++stalls_->value;
    return accepted;
}

void
DistributionNetwork::bulkAdvance(cycle_t n_cycles, index_t n_packages,
                                 index_t fanout)
{
    checkRequest(n_packages, fanout, "bulk advance");
    if (static_cast<count_t>(n_packages) >
        n_cycles * static_cast<count_t>(bandwidth_))
        panic(names(type_).label, " bulk advance exceeds bandwidth: ",
              n_packages, " packages in ", n_cycles, " cycles at ",
              bandwidth_, " packages/cycle");
    countDelivered(n_packages, fanout);
}

void
DistributionNetwork::accountBacklog(index_t count, index_t grant)
{
    if (count <= 0 || grant <= 0)
        return;
    const count_t n = static_cast<count_t>((count + grant - 1) / grant);
    inject_queue_occ_->value += n * static_cast<count_t>(count) -
        static_cast<count_t>(grant) * (n * (n - 1) / 2);
}

void
DistributionNetwork::dumpState(std::ostream &os) const
{
    const Names n = names(type_);
    os << n.unit << ": " << ms_size_ << " " << n.endpoints;
    if (type_ != DnType::PointToPoint)
        os << " over " << levels_ << " levels";
    os << ", bandwidth " << bandwidth_ << ", issued this cycle "
       << issued_this_cycle_ << ", delivered " << packages_->value
       << ", stalls " << stalls_->value << "\n";
}

void
DistributionNetwork::saveState(ArchiveWriter &ar) const
{
    ar.putI64(issued_this_cycle_);
}

void
DistributionNetwork::loadState(ArchiveReader &ar)
{
    issued_this_cycle_ = ar.getI64();
}

} // namespace stonne
