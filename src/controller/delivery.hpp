/**
 * @file
 * Cycle-by-cycle delivery of a fetch list through GB read ports + DN.
 *
 * Shared by all memory controllers through EventEngine: per cycle the
 * Global Buffer grants up to its read bandwidth, the distribution
 * network injects up to its own bandwidth, and the controller retries
 * the remainder — the stall mechanism that separates STONNE's timing
 * from the analytical models. `engine = TICK` runs every cycle through
 * these loops; `engine = EVENT` skips the steady prefix in closed form
 * and runs only the tail here.
 */

#ifndef STONNE_CONTROLLER_DELIVERY_HPP
#define STONNE_CONTROLLER_DELIVERY_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "common/watchdog.hpp"
#include "faults/fault_injector.hpp"
#include "mem/global_buffer.hpp"
#include "network/unit.hpp"
#include "trace/trace.hpp"

namespace stonne {

/**
 * Count elements of sorted `cur` absent from sorted `prev` — the
 * operands that must come from the GB rather than from the multiplier
 * network's neighbour-forwarding links.
 */
inline index_t
countFresh(const std::vector<std::int64_t> &cur,
           const std::vector<std::int64_t> &prev)
{
    index_t fresh = 0;
    std::size_t i = 0, j = 0;
    while (i < cur.size()) {
        if (j >= prev.size() || cur[i] < prev[j]) {
            ++fresh;
            ++i;
        } else if (cur[i] == prev[j]) {
            ++i;
            ++j;
        } else {
            ++j;
        }
    }
    return fresh;
}

/**
 * Stream `remaining` elements of the same kind/fanout from the GB
 * through the DN, cycle by cycle: the one per-cycle delivery loop,
 * behind both engines (EventEngine::deliver() validates the request,
 * accounts the backlog and may skip a steady prefix first).
 *
 * A template over the DN type so calls through a `final` concrete DN
 * resolve statically; `Dn = DistributionNetwork` dispatches virtually.
 *
 * With a watchdog attached, a cycle that moves nothing counts as a stall
 * and a long enough stall run raises DeadlockError with a full fabric
 * snapshot; without one, a zero-progress cycle panics immediately (the
 * legacy behaviour, kept for bare-unit tests). A fault injector may drop
 * flits after DN acceptance: dropped flits stay in `remaining` and are
 * retransmitted on a later cycle, stretching the delivery.
 *
 * @return the number of cycles the delivery occupied.
 */
template <class Dn>
cycle_t
deliverElements(Dn &dn, GlobalBuffer &gb, index_t remaining,
                index_t fanout, PackageKind kind,
                Watchdog *watchdog = nullptr,
                FaultInjector *faults = nullptr, Tracer *trace = nullptr)
{
    cycle_t cycles = 0;
    while (remaining > 0) {
        gb.nextCycle();
        dn.cycle();
        const index_t want = std::min(remaining, dn.bandwidth());
        const index_t granted = gb.readBulk(want);
        index_t sent = dn.injectBulk(granted, fanout, kind);
        index_t dropped = 0;
        if (faults != nullptr && sent > 0) {
            dropped = faults->dropFlits(sent);
            sent -= dropped;
        }
        // The trace clock advances before the watchdog may abort the
        // cycle, so a deadlock post-mortem trace includes every
        // stalled cycle; the cycle's counter activity already landed.
        if (trace != nullptr) {
            trace->tick();
            if (dropped > 0)
                trace->instant("flit_drop",
                               static_cast<count_t>(dropped));
        }
        if (watchdog != nullptr)
            watchdog->tick(static_cast<count_t>(sent));
        else if (sent <= 0)
            panic("delivery through '", dn.name(),
                  "' made no progress in a cycle");
        remaining -= sent;
        ++cycles;
    }
    return cycles;
}

/**
 * Drain `remaining` finished outputs through the GB write ports, cycle
 * by cycle: the one per-cycle drain loop, the write-side sibling of
 * deliverElements() (EventEngine::drain() runs the shared preamble).
 *
 * @return the number of cycles the drain occupied.
 */
inline cycle_t
drainOutputs(GlobalBuffer &gb, index_t remaining,
             Watchdog *watchdog = nullptr, Tracer *trace = nullptr)
{
    cycle_t cycles = 0;
    while (remaining > 0) {
        gb.nextCycle();
        const index_t granted = gb.writeBulk(remaining);
        if (trace != nullptr)
            trace->tick();
        if (watchdog != nullptr)
            watchdog->tick(static_cast<count_t>(granted));
        else if (granted <= 0)
            panic("drain through '", gb.name(),
                  "' made no progress in a cycle");
        remaining -= granted;
        ++cycles;
    }
    return cycles;
}

} // namespace stonne

#endif // STONNE_CONTROLLER_DELIVERY_HPP
