#include "network/rn_linear.hpp"

#include "common/logging.hpp"

namespace stonne {

LinearReductionNetwork::LinearReductionNetwork(index_t ms_size,
                                               StatsRegistry &stats)
    : ReductionNetwork(ms_size),
      adder_ops_(&stats.counter("rn.adder_ops",
                                StatGroup::ReductionNetwork)),
      pipeline_occ_(&stats.counter("rn.pipeline_occ",
                                   StatGroup::ReductionNetwork,
                                   StatKind::Occupancy))
{
    fatalIf(ms_size <= 0, "linear RN needs at least one element");
}

void
LinearReductionNetwork::bulkReduce(index_t clusters, index_t cluster_size)
{
    panicIf(clusters < 0, "negative linear RN cluster count ", clusters);
    panicIf(cluster_size <= 0 || cluster_size > ms_size_,
            "linear RN cluster size ", cluster_size, " out of range");
    if (clusters == 0 || cluster_size == 1)
        return;
    adder_ops_->value += static_cast<count_t>(clusters * (cluster_size - 1));
    pipeline_occ_->value +=
        static_cast<count_t>(clusters * latency(cluster_size));
}

index_t
LinearReductionNetwork::latency(index_t cluster_size) const
{
    panicIf(cluster_size <= 0, "latency of an empty cluster");
    return cluster_size - 1;
}

void
LinearReductionNetwork::accumulate(index_t n)
{
    panicIf(n < 0, "invalid accumulation count");
    adder_ops_->value += static_cast<count_t>(n);
}

void
LinearReductionNetwork::dumpState(std::ostream &os) const
{
    os << name() << ": chain over " << ms_size_ << " switches, adder ops "
       << adder_ops_->value << "\n";
}

} // namespace stonne
