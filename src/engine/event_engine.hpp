/**
 * @file
 * Event/wakeup delivery engine: exact simulation without idle ticking.
 *
 * The paper's Figure-4 engine advances every configured Unit through a
 * virtual cycle() call each clock. For the streaming phases that
 * dominate simulated time — GB→DN delivery and RN→GB drain — that
 * per-cycle loop is pure overhead: in steady state every cycle moves
 * exactly min(fabric, buffer) elements and no unit does anything that
 * cannot be expressed in closed form. This engine replaces the
 * tick-everything loop with a wakeup scheduler:
 *
 *  - units report a nextActiveCycle() (kIdle when they hold no queued
 *    work, no in-flight contents and no pending injections),
 *  - the engine keeps a small per-stream wakeup record, and
 *  - cycles in which every scheduled unit is idle or retires at the
 *    next edge are skipped in one closed-form span: counters via
 *    bulkAdvance(), the watchdog via bulkTick() (clamped so a
 *    simulated-cycle budget still aborts on the same cycle with the
 *    same message), and tracer sample windows via steadyBegin()/
 *    steadyEnd() interpolation — so cycles, counters, outputs, traces
 *    and deadlock detection stay bit-identical to exact per-cycle
 *    stepping.
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
 * commits the following identical units in closed form — every counter, the
 * watchdog, the engine clock and the wakeup records move by a multiple
 * of the first unit's delta. It declines whenever per-cycle stepping
 * could be observed: under TICK, with a fault injector or tracer
 * attached, when a cycle budget would abort inside the span, with a
 * stall run open, or after a counter was registered.
 *
 * `engine = TICK` takes no skip and replays nothing: it runs every
 * cycle through the same loops, so the parity suite can compare the two
 * engines directly; the wakeup bookkeeping advances identically in
 * both modes, keeping checkpoints mode-independent.
 */

#ifndef STONNE_ENGINE_EVENT_ENGINE_HPP
#define STONNE_ENGINE_EVENT_ENGINE_HPP

#include <cstdint>
#include <vector>

#include "checkpoint/checkpointable.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/watchdog.hpp"
#include "faults/fault_injector.hpp"
#include "mem/global_buffer.hpp"
#include "network/unit.hpp"
#include "trace/trace.hpp"

namespace stonne {

/** Wakeup-scheduled delivery/drain engine (see file comment). */
class EventEngine : public Checkpointable
{
  public:
    /** Streams the engine schedules independently. */
    enum Stream : std::size_t {
        Delivery = 0, //!< GB read ports → DN → multiplier switches
        Drain = 1,    //!< RN collection point → GB write ports
        kStreams = 2,
    };

    /**
     * The engine-visible state at the start of a controller's unit of
     * work: what replay() scales the unit's effect against.
     */
    struct Mark {
        std::vector<count_t> counters; //!< registry snapshot
        cycle_t observed = 0;          //!< watchdog cycles observed
        cycle_t stall = 0;             //!< watchdog stall run
        cycle_t now = 0;
        std::uint64_t spans[kStreams] = {0, 0};
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
     * delta since the mark, the watchdog observes times x the unit's
     * cycles (bulkTick(), so wall-clock deadlines are still checked),
     * and the engine clock and the record of every stream the unit
     * used advance by times x the unit's clock delta.
     *
     * The caller guarantees the repetitions are identical: they start
     * from the same controller state and issue the same deliveries,
     * drains and counts. Unit state (per-cycle issue budgets) is left
     * as the first unit left it, which is where each repetition
     * would leave it too.
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

    /** Engine clock: total cycles scheduled across both streams. */
    cycle_t now() const { return now_; }

    /** Cycle the stream last completed a span at (wakeup record). */
    cycle_t lastActive(Stream s) const { return next_active_[s]; }

    void reset();

    /**
     * Serialize the wakeup bookkeeping (engine clock + per-stream
     * last-active cycles). Advanced identically under both engine
     * modes — span lengths are equal by the parity invariant — so a
     * snapshot taken under one mode restores under the other.
     */
    void saveState(ArchiveWriter &ar) const override;
    void loadState(ArchiveReader &ar) override;

  private:
    /**
     * Whether a closed-form skip may cover a unit reporting `wake`:
     * kIdle (nothing in flight) and 0 (in-flight contents retire at
     * the next clock edge, which the span's closed form models) are
     * skippable; any other wakeup pins the engine to exact stepping.
     */
    static bool
    skipAllowed(cycle_t wake)
    {
        return wake == Unit::kIdle || wake == 0;
    }

    /**
     * Clamp a steady-state skip so an armed simulated-cycle budget
     * still aborts on the very cycle the exact loop would: the span is
     * cut at budget + 1 observed cycles, counters and trace advance
     * for exactly that many cycles, and bulkTick() throws with the
     * identical cycles-observed figure.
     */
    cycle_t clampToBudget(cycle_t skip) const;

    /** Advance the engine clock and the stream's wakeup record. */
    void
    noteSpan(Stream s, cycle_t cycles)
    {
        now_ += cycles;
        next_active_[s] = now_;
        ++spans_[s];
    }

    EngineType mode_;
    Watchdog *watchdog_;
    FaultInjector *faults_;
    Tracer *trace_;
    StatsRegistry *stats_;

    cycle_t now_ = 0;
    cycle_t next_active_[kStreams] = {0, 0};
    //! Spans noted per stream: tells replay() which streams a unit
    //! used. Operation-local, so not checkpointed.
    std::uint64_t spans_[kStreams] = {0, 0};
    count_t replayed_ = 0;
};

} // namespace stonne

#endif // STONNE_ENGINE_EVENT_ENGINE_HPP
