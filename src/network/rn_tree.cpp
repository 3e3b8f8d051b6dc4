#include "network/rn_tree.hpp"

#include "common/logging.hpp"

namespace stonne {

ArtReductionNetwork::ArtReductionNetwork(index_t ms_size,
                                         bool with_accumulator,
                                         index_t accumulator_size,
                                         StatsRegistry &stats)
    : ReductionNetwork(ms_size),
      with_accumulator_(with_accumulator),
      accumulator_size_(accumulator_size),
      adder_ops_(&stats.counter("rn.adder_ops",
                                StatGroup::ReductionNetwork)),
      accumulator_ops_(&stats.counter("rn.accumulator_ops",
                                      StatGroup::ReductionNetwork)),
      horizontal_hops_(&stats.counter("rn.horizontal_hops",
                                      StatGroup::ReductionNetwork)),
      pipeline_occ_(&stats.counter("rn.pipeline_occ",
                                   StatGroup::ReductionNetwork,
                                   StatKind::Occupancy))
{
    fatalIf(ms_size <= 0 || (ms_size & (ms_size - 1)) != 0,
            "ART needs a power-of-two number of leaves");
    fatalIf(with_accumulator && accumulator_size <= 0,
            "ART+ACC needs a positive accumulator size");
}

void
ArtReductionNetwork::bulkReduce(index_t clusters, index_t cluster_size)
{
    panicIf(clusters < 0, "negative ART cluster count ", clusters);
    panicIf(cluster_size <= 0 || cluster_size > ms_size_,
            "ART cluster size ", cluster_size, " out of range");
    if (clusters == 0 || cluster_size == 1)
        return;
    // A cluster of n products needs n - 1 two-input additions; the 3:1
    // nodes fuse pairs of them, so ceil((n - 1) / 2) adder firings.
    const index_t firings = (cluster_size - 1 + 1) / 2;
    adder_ops_->value += static_cast<count_t>(clusters * firings);
    // Clusters not aligned to a physical subtree route one operand over a
    // horizontal (augmented) link per level on average.
    if ((cluster_size & (cluster_size - 1)) != 0)
        horizontal_hops_->value += static_cast<count_t>(clusters);
    pipeline_occ_->value +=
        static_cast<count_t>(clusters * latency(cluster_size));
}

index_t
ArtReductionNetwork::latency(index_t cluster_size) const
{
    panicIf(cluster_size <= 0, "latency of an empty cluster");
    return log2Ceil(cluster_size);
}

void
ArtReductionNetwork::accumulate(index_t n)
{
    panicIf(!with_accumulator_,
            "accumulate on an ART without accumulation buffer");
    panicIf(n < 0 || n > accumulator_size_,
            "accumulator burst ", n, " exceeds buffer size ",
            accumulator_size_);
    accumulator_ops_->value += static_cast<count_t>(n);
}

void
ArtReductionNetwork::dumpState(std::ostream &os) const
{
    os << name() << ": " << adderCount() << " adders over "
       << ms_size_ << " leaves, accumulator "
       << (with_accumulator_ ? "present" : "absent") << " (size "
       << accumulator_size_ << "), adder ops " << adder_ops_->value
       << ", accumulator ops " << accumulator_ops_->value << "\n";
}

} // namespace stonne
