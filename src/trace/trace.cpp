#include "trace/trace.hpp"

#include <fstream>

#include "checkpoint/archive.hpp"
#include "common/json_writer.hpp"
#include "common/logging.hpp"

namespace stonne {

namespace {

/**
 * Backstop against runaway traces on very long untraced-by-design
 * runs: past this many events the tracer keeps its clock (cycle
 * accounting must stay exact) but stops recording.
 */
constexpr std::size_t kMaxEvents = 10'000'000;

/**
 * Value of a counter `k` cycles into a region of `cycles` cycles whose
 * value moved from `pre` to `post`. Exact whenever the delta divides
 * the region length — always true for skipped steady state, so
 * skipped and stepped regions sample identical values.
 */
count_t
interpolate(count_t pre, count_t post, cycle_t cycles, cycle_t k)
{
    const count_t d = post - pre;
    if (cycles == 0 || d == 0)
        return post;
    const count_t q = d / cycles;
    const count_t r = d % cycles;
    // The remainder part cannot use r * k directly (overflow for very
    // long regions); long double keeps it monotone and r == 0 — the
    // parity-relevant case — never reaches it.
    const count_t frac = r == 0
        ? 0
        : static_cast<count_t>(static_cast<long double>(r) *
                               static_cast<long double>(k) /
                               static_cast<long double>(cycles));
    return pre + q * static_cast<count_t>(k) + frac;
}

} // namespace

Tracer::Tracer(const StatsRegistry &stats, cycle_t sample_cycles,
               std::string file_path, std::string process_name)
    : stats_(stats), sample_cycles_(sample_cycles),
      path_(std::move(file_path)), process_name_(std::move(process_name)),
      next_sample_(sample_cycles)
{
    fatalIf(sample_cycles_ == 0, "trace_sample_cycles must be positive");
    fatalIf(path_.empty(), "tracing is enabled but trace_file is empty");
}

void
Tracer::record(TraceEvent ev)
{
    if (events_.size() >= kMaxEvents) {
        if (!overflow_warned_) {
            warn("trace '", path_, "' reached ", kMaxEvents,
                 " events; later events are dropped (raise "
                 "trace_sample_cycles to thin the sample series)");
            overflow_warned_ = true;
        }
        return;
    }
    events_.push_back(std::move(ev));
}

void
Tracer::emitSample(cycle_t ts, const std::vector<count_t> &values)
{
    const auto &counters = stats_.counters();
    count_t util_delta[6] = {};
    count_t occ_delta[6] = {};
    for (std::size_t i = 0; i < values.size(); ++i) {
        const count_t prev =
            i < last_sample_.size() ? last_sample_[i] : 0;
        // Counters are monotone within an operation; a reset between
        // operations restarts the series from zero.
        const count_t d = values[i] >= prev ? values[i] - prev : values[i];
        if (d == 0)
            continue;
        TraceEvent ev;
        ev.kind = TraceEvent::Kind::Counter;
        ev.name = counters[i].name;
        ev.ts = ts;
        ev.value = d;
        record(std::move(ev));
        const auto g = static_cast<std::size_t>(counters[i].group);
        if (counters[i].kind == StatKind::Occupancy)
            occ_delta[g] += d;
        else
            util_delta[g] += d;
    }
    const cycle_t window =
        ts > last_sample_ts_ ? ts - last_sample_ts_ : 1;
    for (std::size_t g = 0; g < 6; ++g) {
        // Activity counters give the utilization gauge; occupancy
        // integrals (queue/busy cycles) give the occupancy gauge —
        // mixing them would let a deep backlog read as compute.
        if (util_delta[g] != 0) {
            TraceEvent ev;
            ev.kind = TraceEvent::Kind::Gauge;
            ev.name = std::string("util.") +
                statGroupName(static_cast<StatGroup>(g));
            ev.ts = ts;
            ev.dvalue = static_cast<double>(util_delta[g]) /
                static_cast<double>(window);
            record(std::move(ev));
        }
        if (occ_delta[g] != 0) {
            TraceEvent ev;
            ev.kind = TraceEvent::Kind::Gauge;
            ev.name = std::string("occ.") +
                statGroupName(static_cast<StatGroup>(g));
            ev.ts = ts;
            ev.dvalue = static_cast<double>(occ_delta[g]) /
                static_cast<double>(window);
            record(std::move(ev));
        }
    }
    last_sample_ = values;
    last_sample_ts_ = ts;
}

void
Tracer::tick()
{
    ++now_;
    if (now_ == next_sample_) {
        emitSample(now_, stats_.snapshot());
        next_sample_ += sample_cycles_;
    }
}

void
Tracer::advance(cycle_t cycles)
{
    if (cycles == 0)
        return;
    const std::vector<count_t> post = stats_.snapshot();
    const cycle_t end = now_ + cycles;
    while (next_sample_ <= end) {
        emitSample(next_sample_, post);
        next_sample_ += sample_cycles_;
    }
    now_ = end;
}

void
Tracer::steadyBegin()
{
    panicIf(in_bulk_, "trace steadyBegin inside an open steady region");
    in_bulk_ = true;
    bulk_pre_ = stats_.snapshot();
}

void
Tracer::steadyEnd(cycle_t cycles)
{
    panicIf(!in_bulk_, "trace steadyEnd without steadyBegin");
    in_bulk_ = false;
    interpolateSamples(stats_.snapshot(), cycles);
}

void
Tracer::interpolateSamples(const std::vector<count_t> &post,
                           cycle_t cycles)
{
    const cycle_t start = now_;
    const cycle_t end = now_ + cycles;
    std::vector<count_t> at(post.size());
    while (next_sample_ <= end) {
        const cycle_t k = next_sample_ - start;
        for (std::size_t i = 0; i < post.size(); ++i) {
            const count_t pre = i < bulk_pre_.size() ? bulk_pre_[i] : 0;
            at[i] = interpolate(pre, post[i], cycles, k);
        }
        emitSample(next_sample_, at);
        next_sample_ += sample_cycles_;
    }
    now_ = end;
}

void
Tracer::setPhase(const std::string &name)
{
    if (name == phase_)
        return;
    if (phase_ != "idle" && now_ > phase_start_) {
        TraceEvent span;
        span.kind = TraceEvent::Kind::Span;
        span.name = phase_;
        span.ts = phase_start_;
        span.dur = now_ - phase_start_;
        span.track = kPhaseTrack;
        record(std::move(span));
    }
    phase_ = name;
    phase_start_ = now_;
}

void
Tracer::instant(const std::string &name, count_t value)
{
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::Instant;
    ev.name = name;
    ev.ts = now_;
    ev.track = kEventTrack;
    ev.value = value;
    record(std::move(ev));
}

void
Tracer::finalizeRecording()
{
    setPhase("idle");
    emitSample(now_, stats_.snapshot());
}

void
Tracer::flush()
{
    finalizeRecording();

    const std::string text = toJson().dump() + "\n";
    std::ofstream out(path_);
    fatalIf(!out, "cannot open trace file '", path_, "'");
    out << text;
    fatalIf(!out.good(), "error writing trace file '", path_, "'");
}

namespace {

/** Shared root envelope of single-core and merged trace files. */
JsonValue
makeTraceRoot(JsonValue list, cycle_t sample_cycles)
{
    JsonValue root = JsonValue::makeObject();
    root["traceEvents"] = list;
    root.set("displayTimeUnit", "ns");
    JsonValue other = JsonValue::makeObject();
    other.set("tool", "stonne");
    other.set("clock_unit", "cycle");
    other.set("sample_cycles", static_cast<std::uint64_t>(sample_cycles));
    root["otherData"] = other;
    return root;
}

} // namespace

void
Tracer::appendThreadMetasTo(JsonValue &list, index_t tid_base,
                            const std::string &label_prefix) const
{
    auto meta = [&list, tid_base, &label_prefix](index_t tid,
                                                 const char *label) {
        JsonValue m = JsonValue::makeObject();
        m.set("name", "thread_name");
        m.set("ph", "M");
        m.set("pid", std::int64_t{0});
        m.set("tid", static_cast<std::int64_t>(tid_base + tid));
        JsonValue args = JsonValue::makeObject();
        args.set("name", label_prefix + label);
        m["args"] = args;
        list.append(std::move(m));
    };
    meta(kPhaseTrack, "controller phases");
    meta(kEventTrack, "faults & watchdog");
}

void
Tracer::appendEventsTo(JsonValue &list, index_t tid_base,
                       const std::string &counter_prefix) const
{
    for (const TraceEvent &ev : events_) {
        JsonValue e = JsonValue::makeObject();
        const bool named_series = ev.kind == TraceEvent::Kind::Counter ||
            ev.kind == TraceEvent::Kind::Gauge;
        e.set("name", named_series ? counter_prefix + ev.name : ev.name);
        e.set("pid", std::int64_t{0});
        e.set("ts", static_cast<std::uint64_t>(ev.ts));
        switch (ev.kind) {
          case TraceEvent::Kind::Span: {
            e.set("ph", "X");
            e.set("cat", "phase");
            e.set("tid", static_cast<std::int64_t>(tid_base + ev.track));
            e.set("dur", static_cast<std::uint64_t>(ev.dur));
            break;
          }
          case TraceEvent::Kind::Counter: {
            e.set("ph", "C");
            e.set("cat", "counter");
            JsonValue args = JsonValue::makeObject();
            args.set("delta", static_cast<std::uint64_t>(ev.value));
            e["args"] = args;
            break;
          }
          case TraceEvent::Kind::Gauge: {
            e.set("ph", "C");
            e.set("cat", "counter");
            JsonValue args = JsonValue::makeObject();
            args.set("per_cycle", ev.dvalue);
            e["args"] = args;
            break;
          }
          case TraceEvent::Kind::Instant: {
            e.set("ph", "i");
            e.set("cat", "event");
            e.set("tid", static_cast<std::int64_t>(tid_base + ev.track));
            e.set("s", "g");
            JsonValue args = JsonValue::makeObject();
            args.set("value", static_cast<std::uint64_t>(ev.value));
            e["args"] = args;
            break;
          }
        }
        list.append(std::move(e));
    }
}

JsonValue
Tracer::toJson() const
{
    JsonValue list = JsonValue::makeArray();
    {
        JsonValue m = JsonValue::makeObject();
        m.set("name", "process_name");
        m.set("ph", "M");
        m.set("pid", std::int64_t{0});
        JsonValue args = JsonValue::makeObject();
        args.set("name", process_name_);
        m["args"] = args;
        list.append(std::move(m));
    }
    appendThreadMetasTo(list, 0, "");
    appendEventsTo(list, 0, "");
    return makeTraceRoot(std::move(list), sample_cycles_);
}

void
Tracer::writeMerged(const std::vector<Tracer *> &cores,
                    const std::string &path)
{
    fatalIf(cores.empty(), "merged trace needs at least one core");
    for (Tracer *t : cores)
        t->finalizeRecording();

    JsonValue list = JsonValue::makeArray();
    {
        JsonValue m = JsonValue::makeObject();
        m.set("name", "process_name");
        m.set("ph", "M");
        m.set("pid", std::int64_t{0});
        JsonValue args = JsonValue::makeObject();
        std::string pname = cores[0]->process_name_;
        if (cores.size() > 1)
            pname += " x" + std::to_string(cores.size());
        args.set("name", pname);
        m["args"] = args;
        list.append(std::move(m));
    }
    // tid namespace: 16 ids per core keeps the per-core track constants
    // intact (track + core * 16) with room for future tracks.
    for (std::size_t c = 0; c < cores.size(); ++c)
        cores[c]->appendThreadMetasTo(
            list, static_cast<index_t>(c) * 16,
            cores.size() > 1 ? "core" + std::to_string(c) + " " : "");
    for (std::size_t c = 0; c < cores.size(); ++c)
        cores[c]->appendEventsTo(
            list, static_cast<index_t>(c) * 16,
            cores.size() > 1 ? "core" + std::to_string(c) + "." : "");

    const std::string text =
        makeTraceRoot(std::move(list), cores[0]->sample_cycles_).dump() +
        "\n";
    std::ofstream out(path);
    fatalIf(!out, "cannot open trace file '", path, "'");
    out << text;
    fatalIf(!out.good(), "error writing trace file '", path, "'");
}

void
Tracer::saveState(ArchiveWriter &ar) const
{
    ar.putU64(now_);
    ar.putU64(next_sample_);
    ar.putU64(last_sample_ts_);
    ar.putCounts(last_sample_);
    ar.putBool(in_bulk_);
    ar.putCounts(bulk_pre_);
    ar.putString(phase_);
    ar.putU64(phase_start_);
    ar.putBool(overflow_warned_);

    ar.putU64(events_.size());
    for (const TraceEvent &ev : events_) {
        ar.putU32(static_cast<std::uint32_t>(ev.kind));
        ar.putString(ev.name);
        ar.putU64(ev.ts);
        ar.putU64(ev.dur);
        ar.putI64(ev.track);
        ar.putU64(ev.value);
        ar.putDouble(ev.dvalue);
    }
}

void
Tracer::loadState(ArchiveReader &ar)
{
    now_ = ar.getU64();
    next_sample_ = ar.getU64();
    last_sample_ts_ = ar.getU64();
    last_sample_ = ar.getCounts();
    in_bulk_ = ar.getBool();
    bulk_pre_ = ar.getCounts();
    phase_ = ar.getString();
    phase_start_ = ar.getU64();
    overflow_warned_ = ar.getBool();

    const std::uint64_t n = ar.getU64();
    events_.clear();
    events_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        TraceEvent ev;
        ev.kind = static_cast<TraceEvent::Kind>(ar.getU32());
        ev.name = ar.getString();
        ev.ts = ar.getU64();
        ev.dur = ar.getU64();
        ev.track = ar.getI64();
        ev.value = ar.getU64();
        ev.dvalue = ar.getDouble();
        events_.push_back(std::move(ev));
    }
}

} // namespace stonne
