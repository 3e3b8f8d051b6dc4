/**
 * @file
 * Tests for the cycle-level tracing subsystem: Tracer event recording
 * (samples, phase spans, instants, steady-region interpolation),
 * structural validity of the emitted Chrome trace-event JSON, the
 * telescoping samples-sum-to-aggregate-counters invariant, deadlock
 * post-mortem traces and the trace config keys. Engine parity of the
 * trace event stream lives in test_event_engine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/watchdog.hpp"
#include "controller/delivery.hpp"
#include "engine/output_module.hpp"
#include "engine/stonne_api.hpp"
#include "mem/global_buffer.hpp"
#include "trace/trace.hpp"

namespace stonne {
namespace {

// --- a strict mini JSON parser ----------------------------------------
//
// Validating the trace *file* (not just the in-memory events) needs a
// reader on this side of the writer: any syntax error — unescaped
// control character, trailing comma, bad number — throws, so a test
// that parses the file proves a generic JSON consumer can too.

struct JNode {
    enum class T { Null, Bool, Num, Str, Arr, Obj };
    T t = T::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JNode> arr;
    std::vector<std::pair<std::string, JNode>> obj;

    const JNode *find(const std::string &key) const
    {
        for (const auto &[k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string text) : text_(std::move(text)) {}

    JNode parse()
    {
        const JNode root = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after the JSON value");
        return root;
    }

  private:
    [[noreturn]] void fail(const std::string &why) const
    {
        throw std::runtime_error("JSON error at byte " +
                                 std::to_string(pos_) + ": " + why);
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos_;
    }

    JNode value()
    {
        skipWs();
        const char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"') {
            JNode n;
            n.t = JNode::T::Str;
            n.str = string();
            return n;
        }
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            literal("null");
            return JNode{};
        }
        return number();
    }

    void literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("bad literal, expected '") + word + "'");
            ++pos_;
        }
    }

    JNode boolean()
    {
        JNode n;
        n.t = JNode::T::Bool;
        if (peek() == 't') {
            literal("true");
            n.b = true;
        } else {
            literal("false");
        }
        return n;
    }

    JNode number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a number");
        JNode n;
        n.t = JNode::T::Num;
        std::size_t used = 0;
        n.num = std::stod(text_.substr(start, pos_ - start), &used);
        if (used != pos_ - start)
            fail("malformed number");
        return n;
    }

    std::string string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_++]);
            if (c == '"')
                return out;
            if (c < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out.push_back(static_cast<char>(c));
                continue;
            }
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
                break;
              }
              default:
                fail("unknown escape character");
            }
        }
    }

    JNode array()
    {
        expect('[');
        JNode n;
        n.t = JNode::T::Arr;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return n;
        }
        while (true) {
            n.arr.push_back(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return n;
        }
    }

    JNode object()
    {
        expect('{');
        JNode n;
        n.t = JNode::T::Obj;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return n;
        }
        while (true) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            n.obj.emplace_back(std::move(key), value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return n;
        }
    }

    std::string text_;
    std::size_t pos_ = 0;
};

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

JNode
parseTraceFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return JsonParser(ss.str()).parse();
}

double
numField(const JNode &obj, const std::string &key)
{
    const JNode *n = obj.find(key);
    EXPECT_NE(n, nullptr) << "missing field " << key;
    EXPECT_EQ(n->t, JNode::T::Num);
    return n->num;
}

std::string
strField(const JNode &obj, const std::string &key)
{
    const JNode *n = obj.find(key);
    EXPECT_NE(n, nullptr) << "missing field " << key;
    EXPECT_EQ(n->t, JNode::T::Str);
    return n->str;
}

// --- Tracer unit behaviour --------------------------------------------

TEST(TracerUnit, RejectsBadConstruction)
{
    StatsRegistry s;
    EXPECT_THROW(Tracer(s, 0, "t.json", "acc"), FatalError);
    EXPECT_THROW(Tracer(s, 8, "", "acc"), FatalError);
}

TEST(TracerUnit, TickSamplesOnTheGridWithWindowedDeltas)
{
    StatsRegistry s;
    StatCounter &reads = s.counter("gb.reads", StatGroup::GlobalBuffer);
    Tracer tr(s, 4, tmpPath("tick.trace.json"), "acc");

    // 3 reads per cycle for 8 cycles: samples at ts 4 and 8, each
    // carrying the 12-read window delta and a 3.0 utilization gauge.
    for (int c = 0; c < 8; ++c) {
        reads.value += 3;
        tr.tick();
    }
    EXPECT_EQ(tr.now(), 8u);

    std::vector<const TraceEvent *> counters, gauges;
    for (const TraceEvent &ev : tr.events()) {
        if (ev.kind == TraceEvent::Kind::Counter)
            counters.push_back(&ev);
        if (ev.kind == TraceEvent::Kind::Gauge)
            gauges.push_back(&ev);
    }
    ASSERT_EQ(counters.size(), 2u);
    EXPECT_EQ(counters[0]->ts, 4u);
    EXPECT_EQ(counters[0]->value, 12u);
    EXPECT_EQ(counters[1]->ts, 8u);
    EXPECT_EQ(counters[1]->value, 12u);
    ASSERT_EQ(gauges.size(), 2u);
    EXPECT_EQ(gauges[0]->name, "util.GB");
    EXPECT_DOUBLE_EQ(gauges[0]->dvalue, 3.0);
}

TEST(TracerUnit, OccupancyCountersFeedTheOccGaugeNotUtilization)
{
    StatsRegistry s;
    StatCounter &reads = s.counter("gb.reads", StatGroup::GlobalBuffer);
    StatCounter &occ = s.counter("gb.write_queue_occ",
                                 StatGroup::GlobalBuffer,
                                 StatKind::Occupancy);
    Tracer tr(s, 4, tmpPath("occ.trace.json"), "acc");

    // 2 reads and 6 queued elements per cycle: the utilization gauge
    // must only see the activity counter and the occupancy gauge only
    // the occupancy integral — a deep backlog must not read as
    // compute.
    for (int c = 0; c < 4; ++c) {
        reads.value += 2;
        occ.value += 6;
        tr.tick();
    }

    const TraceEvent *util = nullptr, *occg = nullptr;
    for (const TraceEvent &ev : tr.events()) {
        if (ev.kind != TraceEvent::Kind::Gauge)
            continue;
        if (ev.name == "util.GB")
            util = &ev;
        if (ev.name == "occ.GB")
            occg = &ev;
    }
    ASSERT_NE(util, nullptr);
    EXPECT_DOUBLE_EQ(util->dvalue, 2.0);
    ASSERT_NE(occg, nullptr);
    EXPECT_DOUBLE_EQ(occg->dvalue, 6.0);
}

TEST(TracerUnit, BulkRegionSamplesMatchTheExactLoop)
{
    // The same steady-state activity (5 ops/cycle for 20 cycles) once
    // through the per-cycle loop and once as a closed-form steady
    // region: the event streams must be bit-identical — the invariant
    // the whole-run parity test leans on.
    StatsRegistry s1;
    StatCounter &c1 = s1.counter("mn.ops", StatGroup::MultiplierNetwork);
    Tracer exact(s1, 8, tmpPath("exact.trace.json"), "acc");
    for (int c = 0; c < 20; ++c) {
        c1.value += 5;
        exact.tick();
    }

    StatsRegistry s2;
    StatCounter &c2 = s2.counter("mn.ops", StatGroup::MultiplierNetwork);
    Tracer steady(s2, 8, tmpPath("steady.trace.json"), "acc");
    steady.steadyBegin();
    c2.value += 100;
    steady.steadyEnd(20);

    EXPECT_EQ(exact.now(), steady.now());

    const std::vector<TraceEvent> &a = exact.events();
    const std::vector<TraceEvent> &b = steady.events();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].ts, b[i].ts);
        EXPECT_EQ(a[i].value, b[i].value);
        EXPECT_DOUBLE_EQ(a[i].dvalue, b[i].dvalue);
    }
}

TEST(TracerUnit, PhaseSpansCloseOnChangeAndSkipIdle)
{
    StatsRegistry s;
    Tracer tr(s, 1000, tmpPath("phase.trace.json"), "acc");

    tr.setPhase("input streaming");
    tr.advance(10);
    tr.setPhase("output drain");
    tr.advance(4);
    tr.setPhase("idle");
    tr.advance(5);
    tr.setPhase("input streaming"); // zero-length: no span for it yet
    tr.setPhase("idle");

    std::vector<const TraceEvent *> spans;
    for (const TraceEvent &ev : tr.events())
        if (ev.kind == TraceEvent::Kind::Span)
            spans.push_back(&ev);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0]->name, "input streaming");
    EXPECT_EQ(spans[0]->ts, 0u);
    EXPECT_EQ(spans[0]->dur, 10u);
    EXPECT_EQ(spans[0]->track, Tracer::kPhaseTrack);
    EXPECT_EQ(spans[1]->name, "output drain");
    EXPECT_EQ(spans[1]->ts, 10u);
    EXPECT_EQ(spans[1]->dur, 4u);
}

TEST(TracerUnit, InstantEventsLandOnTheEventTrack)
{
    StatsRegistry s;
    Tracer tr(s, 1000, tmpPath("instant.trace.json"), "acc");
    tr.advance(7);
    tr.instant("flit_drop", 3);
    const TraceEvent &ev = tr.events().back();
    EXPECT_EQ(ev.kind, TraceEvent::Kind::Instant);
    EXPECT_EQ(ev.name, "flit_drop");
    EXPECT_EQ(ev.ts, 7u);
    EXPECT_EQ(ev.value, 3u);
    EXPECT_EQ(ev.track, Tracer::kEventTrack);
}

TEST(TracerUnit, NestedBulkRegionsPanic)
{
    StatsRegistry s;
    Tracer tr(s, 8, tmpPath("nested.trace.json"), "acc");
    tr.steadyBegin();
    EXPECT_THROW(tr.steadyBegin(), PanicError);
    tr.steadyEnd(1);
    EXPECT_THROW(tr.steadyEnd(1), PanicError);
}

TEST(TracerUnit, FlushWritesParsableJsonWithTailSample)
{
    const std::string path = tmpPath("flush.trace.json");
    StatsRegistry s;
    StatCounter &reads = s.counter("gb.reads", StatGroup::GlobalBuffer);
    Tracer tr(s, 4, path, "unit-acc");

    tr.setPhase("input streaming");
    for (int c = 0; c < 6; ++c) { // 6 is off the 4-cycle grid
        reads.value += 2;
        tr.tick();
    }
    tr.flush();

    const JNode root = parseTraceFile(path);
    const JNode *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->t, JNode::T::Arr);

    // The tail sample at ts 6 closes the telescoping series: on-grid
    // window (8 reads) plus tail window (4 reads) = the counter value.
    double sum = 0.0;
    bool saw_process_name = false;
    for (const JNode &e : events->arr) {
        const std::string ph = strField(e, "ph");
        if (ph == "M") {
            if (strField(e, "name") == "process_name")
                saw_process_name = true;
            continue;
        }
        if (ph == "C" && strField(e, "name") == "gb.reads")
            sum += numField(*e.find("args"), "delta");
    }
    EXPECT_TRUE(saw_process_name);
    EXPECT_EQ(static_cast<count_t>(sum), reads.value);
    EXPECT_EQ(static_cast<count_t>(sum), 12u);

    const JNode *other = root.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(strField(*other, "clock_unit"), "cycle");
    EXPECT_EQ(numField(*other, "sample_cycles"), 4.0);
    std::remove(path.c_str());
}

// --- whole-simulation traces ------------------------------------------

/** Run a small conv on a maeri-like instance, returning the Stonne. */
std::unique_ptr<Stonne>
runTracedConv(HardwareConfig cfg, SimulationResult *out)
{
    auto st = std::make_unique<Stonne>(cfg);
    Conv2dShape c;
    c.R = 3;
    c.S = 3;
    c.C = 8;
    c.K = 8;
    c.X = 8;
    c.Y = 8;
    c.padding = 1;
    Rng rng(7);
    Tensor input({c.N, c.C, c.X, c.Y});
    Tensor weights({c.K, c.cPerGroup(), c.R, c.S});
    Tensor bias({c.K});
    input.fillUniform(rng, 0.0f, 1.0f);
    weights.fillNormal(rng, 0.0f, 0.2f);
    bias.fillUniform(rng, -0.1f, 0.1f);
    st->configureConv(LayerSpec::convolution("traced_conv", c));
    st->configureData(std::move(input), std::move(weights),
                      std::move(bias));
    *out = st->runOperation();
    return st;
}

TEST(TracedRun, ProducesLoadableJsonWhoseSamplesSumToTheCounters)
{
    const std::string path = tmpPath("conv.trace.json");
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.trace = true;
    cfg.trace_file = path;
    cfg.trace_sample_cycles = 64;

    SimulationResult r;
    std::unique_ptr<Stonne> st = runTracedConv(cfg, &r);
    EXPECT_EQ(r.trace_path, path);

    const JNode root = parseTraceFile(path);
    const JNode *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);

    // Structural validity plus the aggregate invariant: per counter,
    // the windowed deltas telescope to exactly the aggregate value.
    std::map<std::string, count_t> sums;
    bool saw_phase_span = false;
    for (const JNode &e : events->arr) {
        const std::string ph = strField(e, "ph");
        ASSERT_TRUE(ph == "M" || ph == "X" || ph == "C" || ph == "i")
            << "unexpected ph " << ph;
        if (ph == "X") {
            EXPECT_GE(numField(e, "dur"), 1.0);
            if (numField(e, "tid") == Tracer::kPhaseTrack)
                saw_phase_span = true;
        }
        if (ph == "C") {
            const JNode *args = e.find("args");
            ASSERT_NE(args, nullptr);
            if (const JNode *delta = args->find("delta"))
                sums[strField(e, "name")] +=
                    static_cast<count_t>(delta->num);
        }
    }
    EXPECT_TRUE(saw_phase_span);
    ASSERT_FALSE(sums.empty());
    for (const StatCounter &c : st->stats().counters()) {
        if (c.value == 0)
            continue;
        EXPECT_EQ(sums[c.name], c.value) << "counter " << c.name;
    }

    // The output module's summary points at the trace.
    const std::string summary =
        OutputModule::summary(cfg, r).dump();
    EXPECT_NE(summary.find("\"trace_path\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(TracedRun, TraceOffLeavesNoPathAndNoFile)
{
    const std::string path = tmpPath("off.trace.json");
    std::remove(path.c_str());
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.trace_file = path; // set but inert: trace stays OFF

    SimulationResult r;
    std::unique_ptr<Stonne> st = runTracedConv(cfg, &r);
    EXPECT_TRUE(r.trace_path.empty());
    EXPECT_FALSE(std::filesystem::exists(path));
    const std::string summary = OutputModule::summary(cfg, r).dump();
    EXPECT_EQ(summary.find("trace_path"), std::string::npos);
}

// --- deadlock post-mortem ---------------------------------------------

/** A distribution network that never accepts a flit. */
struct WedgedNetwork {
    index_t bw;
    void cycle() {}
    index_t bandwidth() const { return bw; }
    index_t injectBulk(index_t, index_t) { return 0; }
    std::string name() const { return "wedged_dn"; }
};

TEST(TracedRun, DeadlockLeavesAPostMortemTrace)
{
    const std::string path = tmpPath("deadlock.trace.json");
    HardwareConfig cfg = HardwareConfig::maeriLike(64, 16);
    cfg.watchdog_cycles = 32;
    cfg.trace = true;
    cfg.trace_file = path;
    cfg.trace_sample_cycles = 8;
    Accelerator accel(cfg);
    WedgedNetwork wedged{16};

    try {
        deliverElements(wedged, accel.gb(), 8, 1,
                        &accel.watchdog(), nullptr, accel.tracer());
        FAIL() << "a wedged delivery must raise DeadlockError";
    } catch (const DeadlockError &) {
        // What Stonne::runOperation does on the same path.
        accel.tracer()->instant("deadlock", 0);
        accel.tracer()->flush();
    }

    // The clock ticked through every stalled cycle, so the instant
    // lands at the abort point and the file is complete and valid.
    EXPECT_EQ(accel.tracer()->now(), 32u);
    const JNode root = parseTraceFile(path);
    bool saw_deadlock = false;
    for (const JNode &e : root.find("traceEvents")->arr)
        if (strField(e, "ph") == "i" &&
            strField(e, "name") == "deadlock") {
            saw_deadlock = true;
            EXPECT_EQ(numField(e, "ts"), 32.0);
        }
    EXPECT_TRUE(saw_deadlock);
    std::remove(path.c_str());
}

// --- configuration surface --------------------------------------------

TEST(TraceConfig, DefaultsOffParsesAndRoundTrips)
{
    EXPECT_FALSE(HardwareConfig().trace);
    EXPECT_EQ(HardwareConfig().toConfigText().find("trace ="),
              std::string::npos);

    const HardwareConfig on = HardwareConfig::parse(
        "trace = ON\n"
        "trace_file = run.trace.json\n"
        "trace_sample_cycles = 32\n");
    EXPECT_TRUE(on.trace);
    EXPECT_EQ(on.trace_file, "run.trace.json");
    EXPECT_EQ(on.trace_sample_cycles, 32);

    const HardwareConfig round = HardwareConfig::parse(on.toConfigText());
    EXPECT_TRUE(round.trace);
    EXPECT_EQ(round.trace_file, "run.trace.json");
    EXPECT_EQ(round.trace_sample_cycles, 32);
}

TEST(TraceConfig, ValidateRejectsBadValues)
{
    HardwareConfig bad_sample;
    bad_sample.trace_sample_cycles = 0;
    EXPECT_THROW(bad_sample.validate(), FatalError);

    HardwareConfig no_file;
    no_file.trace = true;
    no_file.trace_file.clear();
    EXPECT_THROW(no_file.validate(), FatalError);

    EXPECT_THROW(HardwareConfig::parse("trace = maybe"), FatalError);
    EXPECT_THROW(HardwareConfig::parse("trace_sample_cycles = 8x"),
                 FatalError);
}

TEST(TraceConfig, ShippedTracedConfigLoads)
{
    const HardwareConfig cfg =
        HardwareConfig::parseFile("configs/maeri_128_traced.cfg");
    EXPECT_TRUE(cfg.trace);
    EXPECT_EQ(cfg.trace_file, "maeri_128_traced.trace.json");
    EXPECT_EQ(cfg.trace_sample_cycles, 64);
    cfg.validate();
}

} // namespace
} // namespace stonne
