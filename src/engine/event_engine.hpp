/**
 * @file
 * Event delivery engine: exact simulation without idle ticking.
 *
 * The paper's Figure-4 engine advances every component through a
 * cycle() call each clock. For the streaming phases that dominate
 * simulated time — GB→DN delivery and RN→GB drain — that per-cycle loop
 * is pure overhead: in steady state every cycle moves exactly
 * min(fabric, buffer) elements and nothing happens that cannot be
 * expressed in closed form. This engine skips all but the last cycle of
 * such a stream in one closed-form span: counters via bulkAdvance(),
 * the watchdog via bulkTick() (clamped so a simulated-cycle budget
 * still aborts on the same cycle with the same message), and tracer
 * sample windows via steadyBegin()/steadyEnd() interpolation — so
 * cycles, counters, outputs, traces and deadlock detection stay
 * bit-identical to exact per-cycle stepping. A delivery takes the skip
 * unless a fault injector is attached (it draws once per cycle); a
 * drain takes it always.
 *
 * The remainder of every span runs through delivery.hpp's exact loop,
 * instantiated on the concrete DN type: one switch on the DN topology
 * tag selects the instantiation whose inner per-cycle calls are
 * non-virtual (gemmini-style single dispatch), replacing three virtual
 * calls per simulated cycle.
 *
 * Controllers whose units of work repeat (MAERI filter blocks and pool
 * channel blocks, SIGMA's columns of a round, SNAPEA's repeated steps)
 * run the first unit exactly between mark() and replay(); replay() then
 * commits the following identical units in closed form — every counter
 * and the watchdog move by a multiple of the first unit's delta. It
 * declines whenever per-cycle stepping could be observed: under TICK,
 * with a fault injector or tracer attached, when a cycle budget would
 * abort inside the span, with a stall run open, or after a counter was
 * registered.
 *
 * `engine = TICK` takes no skip and replays nothing: it runs every
 * cycle through the same loops, so the parity suite can compare the two
 * engines directly. The engine holds no simulated state of its own, so
 * checkpoints are mode-independent.
 */

#ifndef STONNE_ENGINE_EVENT_ENGINE_HPP
#define STONNE_ENGINE_EVENT_ENGINE_HPP

#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/watchdog.hpp"
#include "faults/fault_injector.hpp"
#include "mem/global_buffer.hpp"
#include "network/unit.hpp"
#include "trace/trace.hpp"

namespace stonne {

/** Closed-form delivery/drain engine (see file comment). */
class EventEngine
{
  public:
    /**
     * The engine-visible state at the start of a controller's unit of
     * work: what replay() scales the unit's effect against.
     */
    struct Mark {
        std::vector<count_t> counters; //!< registry snapshot
        cycle_t observed = 0;          //!< watchdog cycles observed
        cycle_t stall = 0;             //!< watchdog stall run
    };

    /**
     * @param stats the registry every unit counts into; without one,
     *        replay() always declines
     */
    EventEngine(EngineType mode, Watchdog *watchdog = nullptr,
                FaultInjector *faults = nullptr, Tracer *trace = nullptr,
                StatsRegistry *stats = nullptr)
        : mode_(mode), watchdog_(watchdog), faults_(faults), trace_(trace),
          stats_(stats)
    {
    }

    EngineType mode() const { return mode_; }

    /**
     * Stream `count` same-kind, same-fanout elements from the GB
     * through the DN. Under EVENT the steady prefix is skipped in
     * closed form, byte-identical to exact per-cycle stepping. A fault
     * injector pins the whole delivery to the exact loop (dropFlits()
     * consumes the seeded RNG stream once per cycle).
     *
     * @return the number of cycles the delivery occupied.
     */
    cycle_t deliver(DistributionNetwork &dn, GlobalBuffer &gb,
                    index_t count, index_t fanout, PackageKind kind);

    /**
     * Drain `count` finished outputs through the GB write ports.
     * Draining makes no RNG draws, so under EVENT the steady span is
     * skipped even with a fault injector attached.
     *
     * @return the number of cycles the drain occupied.
     */
    cycle_t drain(GlobalBuffer &gb, index_t count);

    /** Record the state a unit of work starts from (see replay()). */
    Mark mark() const;

    /**
     * Commit `times` more repetitions of the unit run since `m`, as if
     * each had been stepped again: every counter gains times x its
     * delta since the mark, and the watchdog observes times x the
     * unit's cycles (bulkTick(), so wall-clock deadlines are still
     * checked).
     *
     * The caller guarantees the repetitions are identical: they start
     * from the same controller state and issue the same deliveries,
     * drains and counts. The DN's per-cycle issue budget is left as
     * the first unit left it, which is where each repetition would
     * leave it too.
     *
     * @return false, changing nothing, when per-cycle stepping could be
     *         observed: under TICK, with a fault injector or tracer
     *         attached, without a registry, when the armed cycle budget
     *         would be crossed inside the span, with a watchdog stall
     *         run open at the mark or now, or when a counter was
     *         registered since the mark. The caller then steps the
     *         remaining units exactly.
     */
    bool replay(const Mark &m, count_t times);

    /** Units replay() has committed since construction. */
    count_t replayedUnits() const { return replayed_; }

  private:
    /**
     * Clamp a steady-state skip so an armed simulated-cycle budget
     * still aborts on the very cycle the exact loop would: the span is
     * cut at budget + 1 observed cycles, counters and trace advance
     * for exactly that many cycles, and bulkTick() throws with the
     * identical cycles-observed figure.
     */
    cycle_t clampToBudget(cycle_t skip) const;

    EngineType mode_;
    Watchdog *watchdog_;
    FaultInjector *faults_;
    Tracer *trace_;
    StatsRegistry *stats_;

    count_t replayed_ = 0;
};

} // namespace stonne

#endif // STONNE_ENGINE_EVENT_ENGINE_HPP
