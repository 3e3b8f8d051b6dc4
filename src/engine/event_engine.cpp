#include "engine/event_engine.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "controller/delivery.hpp"

namespace stonne {

cycle_t
EventEngine::clampToBudget(cycle_t skip) const
{
    if (watchdog_ == nullptr)
        return skip;
    const cycle_t budget = watchdog_->cycleBudget();
    if (budget == 0)
        return skip;
    const cycle_t seen = watchdog_->cyclesObserved();
    // Already past the ceiling: the exact loop's first tick throws,
    // so take no skip and let the tail reproduce that abort.
    if (seen > budget)
        return 0;
    return std::min(skip, budget + 1 - seen);
}

cycle_t
EventEngine::deliver(DistributionNetwork &dn, GlobalBuffer &gb,
                     index_t count, index_t fanout)
{
    // Guards are open-coded `if (...) panic(...)`: panicIf evaluates
    // its message arguments eagerly, and constructing dn.name() here
    // on every delivery is measurable on the hot path.
    if (count < 0)
        panic("delivery of ", count, " elements through '", dn.name(),
              "': count must not be negative");
    if (fanout <= 0)
        panic("delivery through '", dn.name(),
              "' with non-positive fanout ", fanout,
              " (destination range is empty)");
    if (dn.bandwidth() <= 0)
        panic("delivery through '", dn.name(),
              "' with non-positive bandwidth ", dn.bandwidth(),
              " (should have been rejected by HardwareConfig::validate)");

    // Queue-occupancy telemetry (dn.inject_queue_occ): the backlog
    // integral of the whole delivery, accounted up front in closed
    // form so skipped and stepped spans see identical counter
    // evolution (per-cycle attribution would diverge at sample
    // boundaries inside a skipped steady-state region).
    const index_t grant = std::min(dn.bandwidth(), gb.readBandwidth());
    dn.accountBacklog(count, grant);

    if (mode_ == EngineType::Tick) {
        return deliverElements(dn, gb, count, fanout, watchdog_,
                               faults_, trace_);
    }

    cycle_t cycles = 0;
    index_t remaining = count;

    // A fault injector pins the delivery to the exact loop:
    // dropFlits() consumes its seeded RNG stream once per cycle.
    const cycle_t total =
        static_cast<cycle_t>((remaining + grant - 1) / grant);
    if (faults_ == nullptr && total > 1) {
        // Steady skip: counters and trace samples land exactly where
        // per-cycle stepping puts them, and the skip is clamped so a
        // cycle-budget abort fires on the same cycle with the same
        // state. The tracer advances before the watchdog may throw —
        // the order the exact loop commits each cycle in.
        const cycle_t skip = clampToBudget(total - 1);
        if (skip > 0) {
            const index_t moved = static_cast<index_t>(skip) * grant;
            if (trace_ != nullptr)
                trace_->steadyBegin();
            gb.bulkAdvance(skip, moved, 0);
            dn.bulkAdvance(skip, moved, fanout);
            if (trace_ != nullptr)
                trace_->steadyEnd(skip);
            if (watchdog_ != nullptr)
                watchdog_->bulkTick(skip, static_cast<count_t>(grant));
            remaining -= moved;
            cycles += skip;
        }
    }

    return cycles + deliverElements(dn, gb, remaining, fanout, watchdog_,
                                    faults_, trace_);
}

cycle_t
EventEngine::drain(GlobalBuffer &gb, index_t count)
{
    if (count < 0)
        panic("drain of ", count, " outputs through '", gb.name(),
              "': count must not be negative");

    // Write-queue occupancy telemetry (gb.write_queue_occ), closed
    // form for the same reason as the delivery backlog.
    gb.accountDrainBacklog(count);

    cycle_t cycles = 0;
    index_t remaining = count;

    // Draining draws nothing from the fault injector's RNG stream, so
    // the steady skip stays legal with faults attached — the exact
    // loop would make the identical per-cycle progress.
    const index_t grant = gb.writeBandwidth();
    const cycle_t total =
        static_cast<cycle_t>((remaining + grant - 1) / grant);
    if (mode_ == EngineType::Event && total > 1) {
        const cycle_t skip = clampToBudget(total - 1);
        if (skip > 0) {
            const index_t drained = static_cast<index_t>(skip) * grant;
            if (trace_ != nullptr)
                trace_->steadyBegin();
            gb.bulkAdvance(skip, 0, drained);
            if (trace_ != nullptr)
                trace_->steadyEnd(skip);
            if (watchdog_ != nullptr)
                watchdog_->bulkTick(skip, static_cast<count_t>(grant));
            remaining -= drained;
            cycles += skip;
        }
    }

    return cycles + drainOutputs(gb, remaining, watchdog_, trace_);
}

EventEngine::Mark
EventEngine::mark() const
{
    Mark m;
    if (stats_ != nullptr)
        m.counters = stats_->snapshot();
    if (watchdog_ != nullptr) {
        m.observed = watchdog_->cyclesObserved();
        m.stall = watchdog_->stallCycles();
    }
    return m;
}

bool
EventEngine::replay(const Mark &m, count_t times)
{
    if (mode_ == EngineType::Tick || faults_ != nullptr ||
        trace_ != nullptr || stats_ == nullptr ||
        stats_->counters().size() != m.counters.size())
        return false;
    cycle_t unit_cycles = 0;
    if (watchdog_ != nullptr) {
        // A stall run would make the repetitions' deadlock checks
        // differ; a budget crossed inside the span must abort on its
        // exact cycle, which only stepping reproduces.
        if (m.stall != 0 || watchdog_->stallCycles() != 0)
            return false;
        unit_cycles = watchdog_->cyclesObserved() - m.observed;
        const cycle_t budget = watchdog_->cycleBudget();
        if (budget != 0 &&
            watchdog_->cyclesObserved() + times * unit_cycles > budget)
            return false;
    }

    stats_->repeat(m.counters, times);
    // Every cycle of a stall-free unit made progress.
    replayed_ += times;
    if (watchdog_ != nullptr)
        watchdog_->bulkTick(times * unit_cycles, 1);
    return true;
}

} // namespace stonne
