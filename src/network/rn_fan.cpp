#include "network/rn_fan.hpp"

#include "common/logging.hpp"

namespace stonne {

FanReductionNetwork::FanReductionNetwork(index_t ms_size,
                                         StatsRegistry &stats)
    : ReductionNetwork(ms_size),
      adder_ops_(&stats.counter("rn.adder_ops",
                                StatGroup::ReductionNetwork)),
      accumulator_ops_(&stats.counter("rn.accumulator_ops",
                                      StatGroup::ReductionNetwork)),
      forward_hops_(&stats.counter("rn.forward_hops",
                                   StatGroup::ReductionNetwork)),
      pipeline_occ_(&stats.counter("rn.pipeline_occ",
                                   StatGroup::ReductionNetwork,
                                   StatKind::Occupancy))
{
    fatalIf(ms_size <= 0 || (ms_size & (ms_size - 1)) != 0,
            "FAN needs a power-of-two number of leaves");
}

void
FanReductionNetwork::bulkReduce(index_t clusters, index_t cluster_size)
{
    panicIf(clusters < 0, "negative FAN cluster count ", clusters);
    panicIf(cluster_size <= 0 || cluster_size > ms_size_,
            "FAN cluster size ", cluster_size, " out of range");
    if (clusters == 0 || cluster_size == 1)
        return;
    adder_ops_->value += static_cast<count_t>(clusters * (cluster_size - 1));
    // Clusters not aligned to a subtree boundary route operands through
    // forwarding links instead of 3:1 fusion.
    if ((cluster_size & (cluster_size - 1)) != 0)
        forward_hops_->value += static_cast<count_t>(clusters);
    pipeline_occ_->value +=
        static_cast<count_t>(clusters * latency(cluster_size));
}

index_t
FanReductionNetwork::latency(index_t cluster_size) const
{
    panicIf(cluster_size <= 0, "latency of an empty cluster");
    return log2Ceil(cluster_size);
}

void
FanReductionNetwork::accumulate(index_t n)
{
    panicIf(n < 0, "invalid accumulation count");
    accumulator_ops_->value += static_cast<count_t>(n);
}

void
FanReductionNetwork::dumpState(std::ostream &os) const
{
    os << name() << ": " << adderCount() << " adders over " << ms_size_
       << " leaves, adder ops " << adder_ops_->value
       << ", accumulator ops " << accumulator_ops_->value << "\n";
}

} // namespace stonne
