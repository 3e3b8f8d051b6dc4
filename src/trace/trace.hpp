/**
 * @file
 * Cycle-level execution tracer emitting Chrome trace-event JSON.
 *
 * STONNE's aggregate counters say *how much* each unit worked; this
 * subsystem says *when*. It records three kinds of events on one
 * monotone cycle clock:
 *
 *  - controller phase spans ("input streaming", "output drain", ...)
 *    as duration ("X") events on the phase track,
 *  - sampled per-counter activity deltas and per-group utilization
 *    gauges as counter ("C") events, one sample every
 *    `trace_sample_cycles` cycles plus a final tail sample, so the
 *    deltas of every series telescope to the aggregate counter value,
 *  - watchdog/fault occurrences (dropped flits, deadlocks) as instant
 *    ("i") events.
 *
 * The output is a standard Trace Event Format JSON object (loadable in
 * Perfetto or chrome://tracing) written through the JsonValue emitter;
 * timestamps are cycles, not microseconds.
 *
 * Closed-form regions: a span the event engine skips with bulkAdvance()
 * arithmetic (and the closed-form systolic run) is bracketed by
 * steadyBegin()/steadyEnd(), which interpolates the sample boundaries
 * inside the region. Steady state means every counter advances by a
 * constant per-cycle delta, so the integer interpolation is exact and
 * the event stream is bit-identical to stepping the region cycle by
 * cycle.
 *
 * The trace clock advances inside the delivery/drain streaming loops
 * and the controllers' closed-form stalls. Controllers overlap
 * delivery and drain (`cycles += max(dl, drain)`), so the trace clock
 * counts *streaming execution* cycles and can exceed the reported
 * latency; `performance.cycles` stays the authoritative figure.
 */

#ifndef STONNE_TRACE_TRACE_HPP
#define STONNE_TRACE_TRACE_HPP

#include <string>
#include <vector>

#include "checkpoint/checkpointable.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace stonne {

class JsonValue;

/** One recorded trace event, pre-serialization. */
struct TraceEvent {
    enum class Kind {
        Span,    //!< "X" duration event (controller phase)
        Counter, //!< "C" event carrying a windowed activity delta
        Gauge,   //!< "C" event carrying a per-cycle utilization value
        Instant, //!< "i" event (fault/watchdog occurrence)
    };

    Kind kind = Kind::Instant;
    std::string name;
    cycle_t ts = 0;
    cycle_t dur = 0;     //!< Span only
    index_t track = 0;   //!< tid the event renders on
    count_t value = 0;   //!< Counter delta / Instant payload
    double dvalue = 0.0; //!< Gauge value
};

/**
 * Records one accelerator's execution timeline and writes it as
 * Chrome trace-event JSON. Owned by the Accelerator when `trace = ON`;
 * every recording entry point is a no-op-cheap call guarded by the
 * caller's null check, so `trace = OFF` costs one branch per site.
 */
class Tracer : public Checkpointable
{
  public:
    /** tid of controller phase spans. */
    static constexpr index_t kPhaseTrack = 1;
    /** tid of fault/watchdog instant events (tid 2 is unused, kept
     *  free so trace files keep their track ids). */
    static constexpr index_t kEventTrack = 3;

    /**
     * @param stats registry sampled for the counter time-series; may
     *        still be acquiring counters (units register lazily)
     * @param sample_cycles distance between counter samples, > 0
     * @param file_path where flush() writes the JSON
     * @param process_name accelerator name shown as the Perfetto
     *        process label
     */
    Tracer(const StatsRegistry &stats, cycle_t sample_cycles,
           std::string file_path, std::string process_name);

    const std::string &filePath() const { return path_; }

    /** Current trace-clock value (streaming-execution cycles). */
    cycle_t now() const { return now_; }

    /** All events recorded so far (tests introspect these). */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Advance the clock one cycle (exact per-cycle loops). */
    void tick();

    /**
     * Advance the clock `cycles` cycles for a closed-form region whose
     * counter activity landed at the region start (DRAM stalls,
     * pipeline fills, the systolic inner run). Sample boundaries
     * inside the region are emitted against the current counter
     * values; both execution modes call this identically.
     */
    void advance(cycle_t cycles);

    /** Mark the start of a closed-form steady-state region. */
    void steadyBegin();

    /**
     * Close a steady region of `cycles` cycles: the sample boundaries
     * inside it are exactly interpolated (in steady state every delta
     * is divisible by the cycle count), so the event stream stays
     * byte-identical to `cycles` exact tick() calls.
     */
    void steadyEnd(cycle_t cycles);

    /** Controller phase change: closes the open span, opens the next. */
    void setPhase(const std::string &name);

    /** Record an instant event (dropped flits, deadlock, ...). */
    void instant(const std::string &name, count_t value);

    /**
     * Emit the tail counter sample, close any open phase span and
     * write the accumulated trace to filePath(). Idempotent per
     * operation: later operations append and a later flush rewrites
     * the whole file.
     */
    void flush();

    /**
     * Write the timelines of several cores' tracers into one Chrome
     * trace file at `path`: core c's tracks render as tids
     * [c*16 + 1, c*16 + 3] with "core<c> ..." thread names, and its
     * counter/gauge series are prefixed "core<c>." (counter events
     * carry no tid, so the name is the only namespace). Each tracer is
     * finalized (tail sample, open phase closed) exactly like flush().
     * With one core the event stream matches that core's own flush()
     * output byte for byte, except the file path.
     */
    static void writeMerged(const std::vector<Tracer *> &cores,
                            const std::string &path);

    /**
     * Serialize the full recording state: the monotone clock, the
     * sample window (so the next sample lands on the same cycle it
     * would have without the interruption), the open phase span, the
     * steady-region bracket and every recorded event — a restored run's
     * flush() writes a byte-identical trace file.
     */
    void saveState(ArchiveWriter &ar) const override;
    void loadState(ArchiveReader &ar) override;

  private:
    void record(TraceEvent ev);
    void emitSample(cycle_t ts, const std::vector<count_t> &values);
    void interpolateSamples(const std::vector<count_t> &post,
                            cycle_t cycles);
    /** Emit the tail sample and close the open phase span (flush(),
     *  minus the file write — writeMerged() finalizes cores the same
     *  way before serializing them into one file). */
    void finalizeRecording();
    void appendThreadMetasTo(JsonValue &list, index_t tid_base,
                             const std::string &label_prefix) const;
    void appendEventsTo(JsonValue &list, index_t tid_base,
                        const std::string &counter_prefix) const;
    JsonValue toJson() const;

    const StatsRegistry &stats_;
    cycle_t sample_cycles_;
    std::string path_;
    std::string process_name_;

    cycle_t now_ = 0;
    cycle_t next_sample_;
    cycle_t last_sample_ts_ = 0;
    std::vector<count_t> last_sample_;

    bool in_bulk_ = false;
    std::vector<count_t> bulk_pre_;

    std::string phase_ = "idle";
    cycle_t phase_start_ = 0;

    bool overflow_warned_ = false;
    std::vector<TraceEvent> events_;
};

} // namespace stonne

#endif // STONNE_TRACE_TRACE_HPP
