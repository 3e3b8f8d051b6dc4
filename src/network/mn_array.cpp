#include "network/mn_array.hpp"

#include "common/logging.hpp"

namespace stonne {

MultiplierArray::MultiplierArray(index_t ms_size, MnType type,
                                 StatsRegistry &stats)
    : ms_size_(ms_size), type_(type),
      mult_ops_(&stats.counter("mn.mult_ops",
                               StatGroup::MultiplierNetwork)),
      forward_ops_(&stats.counter("mn.forward_ops",
                                  StatGroup::MultiplierNetwork)),
      psum_forwards_(&stats.counter("mn.psum_forwards",
                                    StatGroup::MultiplierNetwork)),
      busy_cycles_(&stats.counter("mn.busy_cycles",
                                  StatGroup::MultiplierNetwork,
                                  StatKind::Occupancy))
{
    fatalIf(ms_size <= 0, "multiplier array needs at least one switch");
}

void
MultiplierArray::fireMultipliers(index_t n)
{
    panicIf(n < 0 || n > ms_size_, "fired ", n,
            " multipliers on an array of ", ms_size_);
    mult_ops_->value += static_cast<count_t>(n);
    if (n > 0)
        ++busy_cycles_->value;
}

void
MultiplierArray::bulkAdvance(cycle_t n_cycles, index_t n_mults)
{
    panicIf(n_mults < 0, "negative bulk multiplier count ", n_mults);
    panicIf(static_cast<count_t>(n_mults)
                > n_cycles * static_cast<count_t>(ms_size_),
            "bulk advance fired ", n_mults, " multipliers in ", n_cycles,
            " cycles on an array of ", ms_size_);
    mult_ops_->value += static_cast<count_t>(n_mults);
    // Steady state: every skipped cycle fired multipliers, matching one
    // fireMultipliers(n_mults / n_cycles) call per cycle.
    if (n_mults > 0)
        busy_cycles_->value += n_cycles;
}

void
MultiplierArray::forwardOperands(index_t n)
{
    panicIf(type_ != MnType::Linear,
            "operand forwarding on a network without forwarding links");
    // Each switch has two neighbour links (systolic arrays forward both
    // operands per cycle), so up to 2 * ms_size hops per cycle.
    panicIf(n < 0 || n > 2 * ms_size_, "invalid forwarding count ", n);
    forward_ops_->value += static_cast<count_t>(n);
}

void
MultiplierArray::forwardOperandsBulk(cycle_t n_cycles, count_t n)
{
    panicIf(type_ != MnType::Linear,
            "operand forwarding on a network without forwarding links");
    panicIf(n > n_cycles * 2 * static_cast<count_t>(ms_size_),
            "bulk forwarding of ", n, " operands in ", n_cycles,
            " cycles on an array of ", ms_size_);
    forward_ops_->value += n;
}

void
MultiplierArray::forwardPsums(index_t n)
{
    panicIf(n < 0 || n > ms_size_, "invalid psum forward count ", n);
    psum_forwards_->value += static_cast<count_t>(n);
}

void
MultiplierArray::dumpState(std::ostream &os) const
{
    os << name() << ": " << ms_size_ << " switches ("
       << mnTypeName(type_) << "), mult ops " << mult_ops_->value
       << ", operand forwards " << forward_ops_->value
       << ", psum forwards " << psum_forwards_->value << "\n";
}

} // namespace stonne
