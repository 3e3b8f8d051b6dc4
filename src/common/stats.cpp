#include "common/stats.hpp"

#include "checkpoint/archive.hpp"
#include "common/logging.hpp"

namespace stonne {

const char *
statGroupName(StatGroup g)
{
    switch (g) {
      case StatGroup::GlobalBuffer:        return "GB";
      case StatGroup::DistributionNetwork: return "DN";
      case StatGroup::MultiplierNetwork:   return "MN";
      case StatGroup::ReductionNetwork:    return "RN";
      case StatGroup::Dram:                return "DRAM";
      case StatGroup::Other:               return "OTHER";
    }
    return "?";
}

StatCounter &
StatsRegistry::counter(const std::string &name, StatGroup group,
                       StatKind kind)
{
    auto it = index_.find(name);
    if (it != index_.end()) {
        StatCounter &c = counters_[it->second];
        panicIf(c.group != group,
                "stat counter ", name, " re-registered in another group");
        panicIf(c.kind != kind,
                "stat counter ", name, " re-registered with another kind");
        return c;
    }
    index_[name] = counters_.size();
    counters_.push_back(StatCounter{name, group, 0, kind});
    return counters_.back();
}

count_t
StatsRegistry::value(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? 0 : counters_[it->second].value;
}

count_t
StatsRegistry::groupTotal(StatGroup g) const
{
    count_t total = 0;
    for (const auto &c : counters_)
        if (c.group == g)
            total += c.value;
    return total;
}

std::vector<count_t>
StatsRegistry::snapshot() const
{
    std::vector<count_t> v;
    v.reserve(counters_.size());
    for (const auto &c : counters_)
        v.push_back(c.value);
    return v;
}

void
StatsRegistry::repeat(const std::vector<count_t> &before, count_t times)
{
    panicIf(before.size() != counters_.size(),
            "repeat over a snapshot of ", before.size(), " counters; ",
            counters_.size(), " are registered");
    for (std::size_t i = 0; i < counters_.size(); ++i)
        counters_[i].value += times * (counters_[i].value - before[i]);
}

void
StatsRegistry::reset()
{
    for (auto &c : counters_)
        c.value = 0;
}

void
StatsRegistry::clear()
{
    counters_.clear();
    index_.clear();
}

void
StatsRegistry::saveState(ArchiveWriter &ar) const
{
    ar.putU64(counters_.size());
    for (const StatCounter &c : counters_) {
        ar.putString(c.name);
        ar.putU32(static_cast<std::uint32_t>(c.group));
        ar.putU32(static_cast<std::uint32_t>(c.kind));
        ar.putU64(c.value);
    }
}

void
StatsRegistry::loadState(ArchiveReader &ar)
{
    const std::uint64_t n = ar.getU64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::string name = ar.getString();
        const auto group = static_cast<StatGroup>(ar.getU32());
        const auto kind = static_cast<StatKind>(ar.getU32());
        const count_t value = ar.getU64();
        if (i < counters_.size()) {
            StatCounter &c = counters_[static_cast<std::size_t>(i)];
            if (c.name != name)
                ar.fail("counter #" + std::to_string(i) +
                        " is '" + name + "' in the snapshot but '" +
                        c.name + "' in this instance — the registration "
                        "orders diverged");
            if (c.group != group || c.kind != kind)
                ar.fail("counter '" + name +
                        "' changed group/kind since the snapshot");
            c.value = value;
        } else {
            counter(name, group, kind).value = value;
        }
    }
}

} // namespace stonne
