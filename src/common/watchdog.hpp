/**
 * @file
 * Progress watchdog and deadlock diagnosis.
 *
 * A controller or network bug that wedges a cycle loop (a delivery that
 * never completes, a drain that never makes progress) used to hang the
 * simulation forever. The watchdog observes a per-cycle progress signal
 * (packages moved, MACs fired, GB grants); when no progress occurs for
 * `limit` consecutive cycles it aborts with a DeadlockError whose report
 * dumps the registered state of every hardware unit — GB port budgets,
 * network issue state, controller phase — so the stall site is
 * immediately visible instead of requiring a debugger.
 *
 * The limit comes from the `watchdog_cycles` configuration key.
 */

#ifndef STONNE_COMMON_WATCHDOG_HPP
#define STONNE_COMMON_WATCHDOG_HPP

#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/checkpointable.hpp"
#include "common/types.hpp"

namespace stonne {

/**
 * Thrown when the watchdog detects no forward progress for the
 * configured window. The what() string names the stall; report() holds
 * the full per-unit state snapshot taken at the moment of the stall.
 */
class DeadlockError : public std::runtime_error
{
  public:
    DeadlockError(const std::string &msg, std::string report)
        : std::runtime_error("deadlock: " + msg), report_(std::move(report))
    {
    }

    /** Multi-line snapshot of every registered unit's state. */
    const std::string &report() const { return report_; }

  private:
    std::string report_;
};

/**
 * Thrown when a simulation exceeds an externally imposed budget — the
 * simulated-cycle ceiling (`job_budget_cycles`) or a wall-clock
 * deadline the service's robustness envelope arms per job. Unlike a
 * DeadlockError the run *was* making progress, so a retry under a
 * different execution policy cannot help: callers treat this as a
 * terminal timeout, not a retryable fault.
 */
class BudgetExceededError : public std::runtime_error
{
  public:
    enum class Kind { Cycles, WallClock };

    BudgetExceededError(Kind kind, const std::string &msg)
        : std::runtime_error("budget: " + msg), kind_(kind)
    {
    }

    Kind budgetKind() const { return kind_; }

  private:
    Kind kind_;
};

/** Monitors per-cycle progress and fires DeadlockError on a stall. */
class Watchdog : public Checkpointable
{
  public:
    /** Dumps one component's state into the deadlock report. */
    using SnapshotFn = std::function<void(std::ostream &)>;

    /** @param limit consecutive zero-progress cycles before firing */
    explicit Watchdog(cycle_t limit);

    /** Zero-progress window size. */
    cycle_t limit() const { return limit_; }

    /**
     * Register a component state dump for the deadlock report.
     * @param name heading printed above the dump
     */
    void addSource(std::string name, SnapshotFn dump);

    /**
     * Record one simulated cycle with `progress` forward-progress
     * events (packages delivered, GB grants, MACs fired). Throws
     * DeadlockError once `limit` consecutive cycles pass without any.
     */
    void tick(count_t progress);

    /**
     * Record `cycles` consecutive simulated cycles that each made
     * `progress_per_cycle` forward-progress events — the closed-form
     * equivalent of calling tick(progress_per_cycle) `cycles` times.
     * Used by the event engine to skip steady-state spans without
     * losing the watchdog's cycle accounting.
     */
    void bulkTick(cycle_t cycles, count_t progress_per_cycle);

    /**
     * Arm a simulated-cycle ceiling: tick()/bulkTick() throw
     * BudgetExceededError once the cycles observed for the current
     * operation pass `budget` (0 disarms): the abort reports
     * budget + 1 cycles observed (the event engine clamps its skipped
     * spans to land on that cycle). A disarmed budget adds no observable
     * behavior, keeping budget-free runs bit-identical.
     */
    void setCycleBudget(cycle_t budget) { cycle_budget_ = budget; }
    cycle_t cycleBudget() const { return cycle_budget_; }

    /**
     * Arm a host wall-clock deadline, checked every 8192 ticks and on
     * every bulk region so the cost stays off the per-cycle hot path;
     * std::nullopt disarms. Crossing it throws BudgetExceededError.
     */
    void setWallDeadline(
        std::optional<std::chrono::steady_clock::time_point> deadline)
    {
        wall_deadline_ = deadline;
    }

    /** Cycles observed since construction/reset. */
    cycle_t cyclesObserved() const { return cycles_; }

    /** Current consecutive zero-progress cycle count. */
    cycle_t stallCycles() const { return stall_; }

    /** Render the registered component dumps (the deadlock report). */
    std::string snapshotReport() const;

    /** Clear the stall window and cycle count (new operation). */
    void reset();

    /** Serialize cycle/stall counts (the limit stays config-owned). */
    void saveState(ArchiveWriter &ar) const override;
    void loadState(ArchiveReader &ar) override;

  private:
    [[noreturn]] void fire();
    void checkBudgets(bool check_wall);

    cycle_t limit_;
    cycle_t cycles_ = 0;
    cycle_t stall_ = 0;
    cycle_t cycle_budget_ = 0; //!< 0 = unlimited
    std::optional<std::chrono::steady_clock::time_point> wall_deadline_;
    std::vector<std::pair<std::string, SnapshotFn>> sources_;
};

} // namespace stonne

#endif // STONNE_COMMON_WATCHDOG_HPP
