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
 * `engine = TICK` takes no skip and runs every cycle through the same
 * loops, so the parity suite can compare the two engines directly; the
 * wakeup bookkeeping advances identically in both modes, keeping
 * checkpoints mode-independent.
 */

#ifndef STONNE_ENGINE_EVENT_ENGINE_HPP
#define STONNE_ENGINE_EVENT_ENGINE_HPP

#include "checkpoint/checkpointable.hpp"
#include "common/config.hpp"
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

    EventEngine(EngineType mode, Watchdog *watchdog = nullptr,
                FaultInjector *faults = nullptr, Tracer *trace = nullptr)
        : mode_(mode), watchdog_(watchdog), faults_(faults), trace_(trace)
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
    }

    EngineType mode_;
    Watchdog *watchdog_;
    FaultInjector *faults_;
    Tracer *trace_;

    cycle_t now_ = 0;
    cycle_t next_active_[kStreams] = {0, 0};
};

} // namespace stonne

#endif // STONNE_ENGINE_EVENT_ENGINE_HPP
