#include "faults/fault_injector.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "checkpoint/archive.hpp"
#include "common/logging.hpp"

namespace stonne {

FaultInjector::FaultInjector(const FaultConfig &cfg, index_t ms_size,
                             StatsRegistry &stats)
    : cfg_(cfg), ms_size_(ms_size), rng_(cfg.seed),
      stuck_outputs_(&stats.counter("faults.stuck_outputs",
                                    StatGroup::Other)),
      dropped_flits_(&stats.counter("faults.dropped_flits",
                                    StatGroup::Other)),
      corrupted_flits_(&stats.counter("faults.corrupted_flits",
                                      StatGroup::Other)),
      dram_bitflips_(&stats.counter("faults.dram_bitflips",
                                    StatGroup::Other))
{
    cfg_.validate();
    fatalIf(ms_size <= 0, "fault injector needs a positive ms_size");

    // The stuck-at map is drawn once, first, so it is independent of
    // how many operations later run on the instance.
    if (cfg_.enabled && cfg_.stuck_multiplier_rate > 0.0) {
        stuck_.resize(static_cast<std::size_t>(ms_size), 0);
        for (index_t i = 0; i < ms_size; ++i) {
            if (rng_.chance(cfg_.stuck_multiplier_rate)) {
                stuck_[static_cast<std::size_t>(i)] = 1;
                ++stuck_count_;
            }
        }
    }
}

bool
FaultInjector::multiplierStuck(index_t ms) const
{
    if (stuck_.empty())
        return false;
    panicIf(ms < 0 || ms >= ms_size_, "stuck-at query for multiplier ", ms,
            " outside [0, ", ms_size_, ")");
    return stuck_[static_cast<std::size_t>(ms)] != 0;
}

index_t
FaultInjector::dropFlits(index_t accepted)
{
    if (!active() || cfg_.flit_drop_rate <= 0.0 || accepted <= 0)
        return 0;
    index_t dropped = 0;
    for (index_t i = 0; i < accepted; ++i)
        if (rng_.chance(cfg_.flit_drop_rate))
            ++dropped;
    dropped_flits_->value += static_cast<count_t>(dropped);
    return dropped;
}

count_t
FaultInjector::corruptTensor(Tensor &t, FaultSite site)
{
    const double rate = site == FaultSite::DramStaging
        ? cfg_.dram_bitflip_rate : cfg_.flit_corrupt_rate;
    if (!active() || rate <= 0.0 || t.empty())
        return 0;

    // The first flip detaches `t` from the caller's storage it may
    // share; a run with no flip copies nothing.
    count_t flips = 0;
    float *data = nullptr;
    for (index_t i = 0; i < t.size(); ++i) {
        if (!rng_.chance(rate))
            continue;
        if (data == nullptr)
            data = t.data();
        std::uint32_t bits;
        std::memcpy(&bits, &data[i], sizeof bits);
        bits ^= std::uint32_t{1} << rng_.integer(0, 31);
        std::memcpy(&data[i], &bits, sizeof bits);
        ++flips;
    }
    StatCounter *ctr = site == FaultSite::DramStaging ? dram_bitflips_
                                                      : corrupted_flits_;
    ctr->value += flips;
    return flips;
}

count_t
FaultInjector::applyStuckMultipliers(Tensor &out)
{
    if (stuck_count_ == 0 || out.empty())
        return 0;
    count_t zeroed = 0;
    float *data = out.data();
    for (index_t i = 0; i < out.size(); ++i) {
        if (stuck_[static_cast<std::size_t>(i % ms_size_)]) {
            data[i] = 0.0f;
            ++zeroed;
        }
    }
    stuck_outputs_->value += zeroed;
    return zeroed;
}

count_t
FaultInjector::totalInjected() const
{
    return stuck_outputs_->value + dropped_flits_->value +
           corrupted_flits_->value + dram_bitflips_->value;
}

std::string
FaultInjector::describe() const
{
    std::ostringstream os;
    if (!cfg_.enabled) {
        os << "faults disabled";
        return os.str();
    }
    os << "faults seed=" << cfg_.seed
       << " stuck_ms=" << stuck_count_ << "/" << ms_size_
       << " stuck_outputs=" << stuck_outputs_->value
       << " dropped_flits=" << dropped_flits_->value
       << " corrupted_flits=" << corrupted_flits_->value
       << " dram_bitflips=" << dram_bitflips_->value;
    return os.str();
}

void
FaultInjector::saveState(ArchiveWriter &ar) const
{
    std::ostringstream os;
    os << rng_.engine();
    ar.putString(os.str());
    ar.putString(std::string(stuck_.begin(), stuck_.end()));
    ar.putI64(stuck_count_);
}

void
FaultInjector::loadState(ArchiveReader &ar)
{
    const std::string engine_text = ar.getString();
    std::istringstream is(engine_text);
    is >> rng_.engine();
    if (!is)
        ar.fail("fault-injector RNG state is not a valid mt19937_64 "
                "stream");
    const std::string stuck = ar.getString();
    if (stuck.size() != stuck_.size())
        ar.fail("stuck-multiplier map has " +
                std::to_string(stuck.size()) + " entries, this instance "
                "has " + std::to_string(stuck_.size()) +
                " multiplier switches");
    std::copy(stuck.begin(), stuck.end(), stuck_.begin());
    stuck_count_ = ar.getI64();
}

} // namespace stonne
