#include "common/watchdog.hpp"

#include <sstream>

#include "checkpoint/archive.hpp"
#include "common/logging.hpp"
#include "common/sim_context.hpp"

namespace stonne {

Watchdog::Watchdog(cycle_t limit)
    : limit_(limit)
{
    fatalIf(limit == 0, "watchdog_cycles must be positive");
}

void
Watchdog::addSource(std::string name, SnapshotFn dump)
{
    sources_.emplace_back(std::move(name), std::move(dump));
}

void
Watchdog::checkBudgets(bool check_wall)
{
    if (cycle_budget_ != 0 && cycles_ > cycle_budget_) {
        std::ostringstream msg;
        msg << "simulated-cycle budget exhausted: " << cycles_
            << " cycles observed, budget " << cycle_budget_
            << SimContext::suffix();
        throw BudgetExceededError(BudgetExceededError::Kind::Cycles,
                                  msg.str());
    }
    if (check_wall && wall_deadline_ &&
        std::chrono::steady_clock::now() > *wall_deadline_) {
        std::ostringstream msg;
        msg << "wall-clock budget exhausted at simulated cycle "
            << cycles_ << SimContext::suffix();
        throw BudgetExceededError(BudgetExceededError::Kind::WallClock,
                                  msg.str());
    }
}

void
Watchdog::tick(count_t progress)
{
    ++cycles_;
    if (cycle_budget_ != 0 || wall_deadline_)
        checkBudgets((cycles_ & 8191) == 0);
    if (progress > 0) {
        stall_ = 0;
        return;
    }
    if (++stall_ >= limit_)
        fire();
}

void
Watchdog::bulkTick(cycle_t cycles, count_t progress_per_cycle)
{
    if (cycles == 0)
        return;
    cycles_ += cycles;
    if (cycle_budget_ != 0 || wall_deadline_)
        checkBudgets(true);
    if (progress_per_cycle > 0) {
        stall_ = 0;
        return;
    }
    stall_ += cycles;
    if (stall_ >= limit_)
        fire();
}

std::string
Watchdog::snapshotReport() const
{
    std::ostringstream os;
    for (const auto &[name, dump] : sources_) {
        os << "--- " << name << " ---\n";
        dump(os);
    }
    return os.str();
}

void
Watchdog::fire()
{
    std::ostringstream msg;
    msg << "no forward progress for " << stall_
        << " consecutive cycles (watchdog_cycles = " << limit_
        << ", cycle " << cycles_ << ")" << SimContext::suffix();
    std::string report = snapshotReport();
    stall_ = 0;
    throw DeadlockError(msg.str(),
                        report.empty() ? "(no snapshot sources registered)\n"
                                       : std::move(report));
}

void
Watchdog::reset()
{
    cycles_ = 0;
    stall_ = 0;
}

// The limit is deliberately not serialized: a restore target may run
// with a different `watchdog_cycles` budget (the degraded retry widens
// it) and the configured value must win over the snapshot's.
void
Watchdog::saveState(ArchiveWriter &ar) const
{
    ar.putU64(cycles_);
    ar.putU64(stall_);
}

void
Watchdog::loadState(ArchiveReader &ar)
{
    cycles_ = ar.getU64();
    stall_ = ar.getU64();
}

} // namespace stonne
