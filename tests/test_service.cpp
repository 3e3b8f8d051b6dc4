/**
 * @file
 * Tests for the simulation service (src/service): strict protocol
 * parsing, admission control, the per-job robustness envelope (the
 * degraded retry, budgets, snapshot resume, warm cache), fault
 * isolation between jobs, and graceful shutdown.
 *
 * The deadlock staging reuses the deterministic recipe proven by
 * test_recovery: heavy seeded flit drops on a single-flit
 * distribution link make zero-progress streak lengths bit-reproducible
 * from the fault seed, so the exact completion threshold of a watchdog
 * budget can be probed once and any smaller budget deadlocks on every
 * run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "checkpoint/archive.hpp"
#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "common/logging.hpp"
#include "common/watchdog.hpp"
#include "engine/stonne_api.hpp"
#include "engine/workload.hpp"
#include "frontend/model_loader.hpp"
#include "service/daemon.hpp"
#include "service/envelope.hpp"
#include "service/protocol.hpp"

namespace stonne::service {
namespace {

struct TempFile {
    std::string path;

    explicit TempFile(std::string p) : path(std::move(p)) { clean(); }
    ~TempFile() { clean(); }

    void clean()
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        std::filesystem::remove(path + ".tmp", ec);
    }
};

/** Parse every non-empty NDJSON line the daemon emitted. */
std::vector<JsonValue>
parseLines(const std::string &text)
{
    std::vector<JsonValue> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            out.push_back(JsonValue::parse(line));
    return out;
}

/** The result response of a job id (nullptr when absent). */
const JsonValue *
findResult(const std::vector<JsonValue> &responses, const std::string &id)
{
    for (const JsonValue &r : responses) {
        const JsonValue *type = r.find("type");
        const JsonValue *rid = r.find("id");
        if (type && type->asString() == "result" && rid &&
            rid->asString() == id)
            return &r;
    }
    return nullptr;
}

/** All status states streamed for a job id, in emission order. */
std::vector<std::string>
statusStates(const std::vector<JsonValue> &responses, const std::string &id)
{
    std::vector<std::string> states;
    for (const JsonValue &r : responses) {
        const JsonValue *type = r.find("type");
        const JsonValue *rid = r.find("id");
        if (type && type->asString() == "status" && rid &&
            rid->asString() == id)
            states.push_back(r.find("state")->asString());
    }
    return states;
}

/** ProtocolError code thrown by parseRequest ("" when it parses). */
std::string
protoCode(const std::string &line)
{
    try {
        parseRequest(line);
        return "";
    } catch (const ProtocolError &e) {
        return e.code();
    }
}

std::string
convJson()
{
    return R"({"kind":"conv","name":"svc","R":3,"S":3,"C":4,"K":8,)"
           R"("X":8,"Y":8,"pad":1})";
}

LayerSpec
convLayer()
{
    Conv2dShape c;
    c.R = 3;
    c.S = 3;
    c.C = 4;
    c.K = 8;
    c.X = 8;
    c.Y = 8;
    c.padding = 1;
    return LayerSpec::convolution("svc", c);
}

/** A watchdog budget no real stall streak of these tiny ops reaches. */
constexpr index_t kGenerousWatchdog = 1 << 22;

/** Whether `ops` back-to-back ops complete under a watchdog budget. */
bool
completesOps(HardwareConfig cfg, const LayerSpec &layer,
             const LayerData &data, index_t watchdog, int ops)
{
    cfg.watchdog_cycles = watchdog;
    Stonne st(cfg);
    try {
        for (int i = 0; i < ops; ++i)
            runLayer(st, layer, data);
        return true;
    } catch (const DeadlockError &) {
        return false;
    }
}

/**
 * Exact smallest watchdog budget for which `completes` holds. Budgets
 * only abort — they never perturb the simulation — so completion is
 * monotone in the budget and the threshold bisects exactly. Returns 0
 * when even the generous ceiling deadlocks.
 */
index_t
minCompletingBudget(const std::function<bool(index_t)> &completes)
{
    index_t hi = 2;
    while (!completes(hi)) {
        hi *= 2;
        if (hi > kGenerousWatchdog)
            return 0;
    }
    index_t lo = hi / 2; // observed failing, except when hi == 2
    if (hi == 2) {
        if (completes(1))
            return 1;
        lo = 1;
    }
    while (hi - lo > 1) {
        const index_t mid = lo + (hi - lo) / 2;
        if (completes(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

/**
 * The faulty world every deadlock test shares: the pinned
 * configs/maeri_64_faulty.cfg resilience config, patched through the
 * protocol's own override path onto a single-flit link with 75% drops,
 * plus the exact one-op completion threshold of its watchdog budget.
 * Probed once per test binary.
 */
struct FaultyWorld {
    HardwareConfig cfg;
    LayerSpec layer;
    LayerData data;
    index_t ok_norm = 0;
};

const std::vector<std::pair<std::string, std::string>> &
faultyOverrides()
{
    static const std::vector<std::pair<std::string, std::string>> kOv = {
        {"dn_bandwidth", "1"},
        {"rn_bandwidth", "1"},
        {"fault_seed", "17"},
        {"fault_flit_drop_rate", "0.75"},
    };
    return kOv;
}

const FaultyWorld &
faultyWorld()
{
    static const FaultyWorld *world = [] {
        auto *fw = new FaultyWorld;
        fw->cfg = applyOverrides(
            HardwareConfig::parseFile("configs/maeri_64_faulty.cfg"),
            faultyOverrides());
        fw->layer = convLayer();
        fw->data = makeLayerData(fw->layer, 0.0, 42);
        fw->ok_norm = minCompletingBudget([&](index_t w) {
            return completesOps(fw->cfg, fw->layer, fw->data, w, 1);
        });
        return fw;
    }();
    return *world;
}

/** The faulty job request: same overrides the probe ran under. */
std::string
faultyRunRequest(const std::string &id, index_t watchdog, index_t retries)
{
    std::ostringstream os;
    os << R"({"type":"run","id":")" << id
       << R"(","config":"configs/maeri_64_faulty.cfg","overrides":{)"
       << R"("dn_bandwidth":1,"rn_bandwidth":1,"fault_seed":17,)"
       << R"("fault_flit_drop_rate":0.75,"watchdog_cycles":)" << watchdog
       << R"(},"layer":)" << convJson() << R"(,"retries":)" << retries
       << "}";
    return os.str();
}

// --- strict protocol parsing ------------------------------------------

TEST(ServiceProtocol, GarbageIsRejectedWithStructuredCodes)
{
    EXPECT_EQ(protoCode(R"({"type":"run","id":"x)"), kErrBadJson);
    EXPECT_EQ(protoCode("not json at all"), kErrBadJson);
    EXPECT_EQ(protoCode(R"(["type","run"])"), kErrBadJson);
    EXPECT_EQ(protoCode(R"({"type":"ping","type":"ping"})"), kErrBadJson);
    EXPECT_EQ(protoCode(R"({"type":"frobnicate"})"), kErrUnknownType);
    EXPECT_EQ(protoCode(std::string(kMaxRequestBytes + 1, 'a')),
              kErrOversized);
    EXPECT_EQ(protoCode(""), kErrBadJson);
    EXPECT_EQ(protoCode(R"({"type":"ping"})"), "");
}

TEST(ServiceProtocol, StrictMemberAndValueChecks)
{
    // Unknown members are rejected everywhere, not ignored.
    EXPECT_EQ(protoCode(R"({"type":"ping","extra":1})"), kErrBadRequest);
    EXPECT_EQ(protoCode(R"({"type":"run","id":"a","layer":)" + convJson() +
                        R"(,"bogus":1})"),
              kErrBadRequest);
    // run/tune require a non-empty, bounded id and a layer.
    EXPECT_EQ(protoCode(R"({"type":"run","layer":)" + convJson() + "}"),
              kErrBadRequest);
    EXPECT_EQ(protoCode(R"({"type":"run","id":"","layer":)" + convJson() +
                        "}"),
              kErrBadRequest);
    EXPECT_EQ(protoCode(R"({"type":"run","id":")" +
                        std::string(kMaxIdBytes + 1, 'x') +
                        R"(","layer":)" + convJson() + "}"),
              kErrBadRequest);
    EXPECT_EQ(protoCode(R"({"type":"run","id":"a"})"), kErrBadRequest);
    // Value-level strictness.
    EXPECT_EQ(protoCode(R"({"type":"run","id":"a","layer":)" + convJson() +
                        R"(,"tile":[1,2,3]})"),
              kErrBadRequest);
    EXPECT_EQ(protoCode(R"({"type":"run","id":"a","layer":)" + convJson() +
                        R"(,"sparsity":1.5})"),
              kErrBadRequest);
    EXPECT_EQ(protoCode(R"({"type":"run","id":"a","layer":)" + convJson() +
                        R"(,"top_k":3})"),
              kErrBadRequest);
    EXPECT_EQ(protoCode(
                  R"({"type":"run","id":"a","layer":{"kind":"warp"}})"),
              kErrBadRequest);
    // A valid run request parses.
    EXPECT_EQ(protoCode(R"({"type":"run","id":"a","layer":)" + convJson() +
                        "}"),
              "");
}

TEST(ServiceProtocol, OverridesPatchAndUnknownKeysFail)
{
    const HardwareConfig base = HardwareConfig::maeriLike(64, 16);
    const HardwareConfig patched = applyOverrides(
        base, {{"dn_bandwidth", "8"}, {"watchdog_cycles", "1234"}});
    EXPECT_EQ(patched.dn_bandwidth, 8);
    EXPECT_EQ(patched.watchdog_cycles, 1234);
    EXPECT_EQ(patched.ms_size, base.ms_size);

    EXPECT_THROW(applyOverrides(base, {{"no_such_key", "1"}}),
                 ProtocolError);
    EXPECT_THROW(applyOverrides(base, {{"dn_bandwidth", "banana"}}),
                 ProtocolError);
    try {
        applyOverrides(base, {{"no_such_key", "1"}});
        FAIL() << "expected ProtocolError";
    } catch (const ProtocolError &e) {
        EXPECT_EQ(e.code(), kErrBadConfig);
    }
}

TEST(ServiceProtocol, OverridesKeepTheSearchKeys)
{
    // Overrides re-serialise the job config: search keys set in the
    // config text must survive that with their flags off.
    const HardwareConfig cfg = HardwareConfig::parse(
        "controller = DENSE\ndse_top_k = 2\ndse_cache_file = job.cache\n"
        "explore_axes = ms_size\nexplore_top_k = 9\n");
    const HardwareConfig patched =
        applyOverrides(cfg, {{"job_retries", "1"}});
    EXPECT_EQ(patched.job_retries, 1);
    EXPECT_EQ(patched.dse_top_k, 2);
    EXPECT_EQ(patched.dse_cache_file, "job.cache");
    EXPECT_EQ(patched.explore_axes, "ms_size");
    EXPECT_EQ(patched.explore_top_k, 9);
}

TEST(ServiceProtocol, RemovedFastForwardKeyIsRejected)
{
    // Removed keys are unknown keys, reported with the strict parser's
    // file:line diagnostic in a .cfg and rejected in a job override:
    // `fast_forward` named a second execution mode that no longer
    // exists, and `fifo_capacity` sized FIFOs that no fabric had.
    for (const auto &[key, value] :
         {std::pair<std::string, std::string>{"fast_forward", "ON"},
          {"fifo_capacity", "8"}}) {
        SCOPED_TRACE(key);
        TempFile cfg_file("test_service_removed_key.cfg");
        std::ofstream(cfg_file.path)
            << "ms_size = 64\n" << key << " = " << value << "\n";
        try {
            (void)HardwareConfig::parseFile(cfg_file.path);
            FAIL() << "expected FatalError";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          cfg_file.path + ":2: unknown config key"),
                      std::string::npos)
                << e.what();
        }

        try {
            (void)applyOverrides(HardwareConfig::maeriLike(64, 16),
                                 {{key, value}});
            FAIL() << "expected ProtocolError";
        } catch (const ProtocolError &e) {
            EXPECT_EQ(e.code(), kErrBadConfig);
            EXPECT_NE(std::string(e.what()).find("unknown config key"),
                      std::string::npos)
                << e.what();
        }
    }
}

// --- daemon: protocol errors, duplicates, admission -------------------

TEST(ServiceDaemon, ProtocolGarbageGetsErrorResponsesAndDaemonSurvives)
{
    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);

    EXPECT_TRUE(daemon.handleLine(R"({"type":"run","id":)"));
    EXPECT_TRUE(daemon.handleLine(R"({"type":"frobnicate"})"));
    EXPECT_TRUE(daemon.handleLine(std::string(kMaxRequestBytes + 1, 'x')));
    // A bad override rejects the job at admission, before any worker.
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"run","id":"bad-ov","layer":)" + convJson() +
        R"(,"overrides":{"no_such_key":1}})"));
    // The daemon still serves after all that garbage.
    EXPECT_TRUE(daemon.handleLine(R"({"type":"run","id":"ok","layer":)" +
                                  convJson() + "}"));
    daemon.finish();

    const auto responses = parseLines(out.str());
    std::vector<std::string> error_codes;
    for (const JsonValue &r : responses)
        if (r.find("type")->asString() == "error")
            error_codes.push_back(r.find("code")->asString());
    EXPECT_EQ(error_codes,
              (std::vector<std::string>{kErrBadJson, kErrUnknownType,
                                        kErrOversized}));

    const JsonValue *bad = findResult(responses, "bad-ov");
    ASSERT_NE(bad, nullptr);
    EXPECT_EQ(bad->find("status")->asString(), "rejected");
    EXPECT_EQ(bad->find("code")->asString(), kErrBadConfig);

    const JsonValue *ok = findResult(responses, "ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok->find("status")->asString(), "done");

    const ServiceCounters c = daemon.counters();
    EXPECT_EQ(c.protocol_errors, 3u);
    EXPECT_EQ(c.rejected, 1u);
    EXPECT_EQ(c.done, 1u);
}

TEST(ServiceDaemon, BoundedQueueRejectsOverflowAndDuplicateIds)
{
    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_queue_depth = 2;
    opts.base.service_workers = 1;
    opts.start_workers = false; // jobs stay queued until finish()
    ServiceDaemon daemon(opts, out);
    EXPECT_EQ(daemon.queueDepth(), 2u);

    const std::string tail = R"(,"layer":)" + convJson() + "}";
    EXPECT_TRUE(daemon.handleLine(R"({"type":"run","id":"a")" + tail));
    EXPECT_TRUE(daemon.handleLine(R"({"type":"run","id":"a")" + tail));
    EXPECT_TRUE(daemon.handleLine(R"({"type":"run","id":"b")" + tail));
    EXPECT_TRUE(daemon.handleLine(R"({"type":"run","id":"c")" + tail));
    daemon.finish(); // paused pool spins up and drains a + b

    const auto responses = parseLines(out.str());
    const JsonValue *dup = findResult(responses, "a");
    ASSERT_NE(dup, nullptr); // first "a" result in emission order
    const JsonValue *c = findResult(responses, "c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->find("status")->asString(), "rejected");
    EXPECT_EQ(c->find("code")->asString(), kErrQueueFull);

    std::size_t rejected_dup = 0;
    for (const JsonValue &r : responses)
        if (r.find("type")->asString() == "result" &&
            r.find("id")->asString() == "a" &&
            r.find("status")->asString() == "rejected") {
            ++rejected_dup;
            EXPECT_EQ(r.find("code")->asString(), kErrDuplicateId);
        }
    EXPECT_EQ(rejected_dup, 1u);

    const ServiceCounters counters = daemon.counters();
    EXPECT_EQ(counters.admitted, 2u);
    EXPECT_EQ(counters.rejected, 2u);
    EXPECT_EQ(counters.done, 2u);

    const JsonValue *b = findResult(responses, "b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->find("status")->asString(), "done");
}

// --- the robustness envelope ------------------------------------------

TEST(ServiceEnvelope, CycleBudgetTimesOutTerminally)
{
    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);

    // This conv needs a few hundred cycles; 32 cannot finish it.
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"run","id":"tight","budget_cycles":32,"retries":3,)"
        R"("layer":)" +
        convJson() + "}"));
    daemon.finish();

    const auto responses = parseLines(out.str());
    const JsonValue *r = findResult(responses, "tight");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->find("status")->asString(), "timeout");
    const JsonValue &svc = *r->find("service");
    // Terminal on the first attempt: a budget is not a transient fault,
    // so the retry policy must not burn three more attempts on it.
    EXPECT_EQ(svc.find("attempts")->asInt64(), 1);
    EXPECT_EQ(svc.find("failures")->items().size(), 1u);
    EXPECT_EQ(daemon.counters().timeout, 1u);
    EXPECT_EQ(daemon.counters().retries, 0u);
}

TEST(ServiceEnvelope, CycleBudgetTimeoutReportsBudgetPlusOne)
{
    // Under the default engine a steady span crossing the job budget is
    // clamped, so the timeout names budget + 1 observed cycles, exactly
    // as the per-cycle engine does.
    const auto run = [](const std::string &engine) {
        std::ostringstream out;
        ServiceOptions opts;
        opts.base = HardwareConfig::maeriLike(64, 16);
        opts.base.service_workers = 1;
        ServiceDaemon daemon(opts, out);
        std::string overrides = R"("dn_bandwidth":1,"rn_bandwidth":1)";
        if (!engine.empty())
            overrides += R"(,"engine":")" + engine + "\"";
        EXPECT_TRUE(daemon.handleLine(
            R"({"type":"run","id":"tight","budget_cycles":17,)"
            R"("use_cache":false,"overrides":{)" +
            overrides + R"(},"layer":)" + convJson() + "}"));
        daemon.finish();
        const auto responses = parseLines(out.str());
        const JsonValue *r = findResult(responses, "tight");
        EXPECT_NE(r, nullptr);
        if (r == nullptr)
            return std::string();
        EXPECT_EQ(r->find("status")->asString(), "timeout");
        return r->find("error")->asString();
    };

    const std::string got = run("");
    EXPECT_NE(got.find("18 cycles observed, budget 17"), std::string::npos)
        << got;
    EXPECT_EQ(got, run("TICK"));
}

TEST(ServiceEnvelope, DeadlockRetriesThenDegradedAttemptSucceeds)
{
    const FaultyWorld &fw = faultyWorld();
    ASSERT_GT(fw.ok_norm, 1) << "no deterministic deadlock window";
    // Normal attempts run one budget notch below the threshold (a
    // guaranteed deadlock); the degraded attempt's 4x widening must
    // clear it.
    const index_t w = fw.ok_norm - 1;
    ASSERT_GE(4 * w, fw.ok_norm)
        << "4x widening cannot rescue this fault seed";

    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);

    EXPECT_TRUE(daemon.handleLine(faultyRunRequest("recov", w, 2)));
    daemon.finish();

    const auto responses = parseLines(out.str());
    EXPECT_EQ(statusStates(responses, "recov"),
              (std::vector<std::string>{"queued", "admitted", "running",
                                        "retrying"}));
    for (const JsonValue &l : responses)
        if (l.find("state") && l.find("state")->asString() == "retrying") {
            EXPECT_EQ(l.find("attempt")->asInt64(), 2);
            EXPECT_TRUE(l.find("degraded")->asBool());
        }

    const JsonValue *r = findResult(responses, "recov");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->find("status")->asString(), "done");
    const JsonValue &svc = *r->find("service");
    EXPECT_EQ(svc.find("attempts")->asInt64(), 2);
    EXPECT_TRUE(svc.find("degraded")->asBool());
    ASSERT_EQ(svc.find("failures")->items().size(), 1u);
    for (const JsonValue &f : svc.find("failures")->items())
        EXPECT_FALSE(f.find("cause")->asString().empty());
    EXPECT_EQ(daemon.counters().retries, 1u);
    EXPECT_EQ(daemon.counters().done, 1u);
}

TEST(ServiceEnvelope, SnapshotResumeSkipsCompletedOperations)
{
    // Find a fault seed whose two-op threshold exceeds its one-op
    // threshold: operation 1 completes under some budget w while
    // operation 2 (its fault-RNG stream continues) deadlocks under w.
    const LayerSpec layer = convLayer();
    const LayerData data = makeLayerData(layer, 0.0, 42);
    const HardwareConfig base = faultyWorld().cfg;
    HardwareConfig cfg;
    index_t ok1 = 0, ok12 = 0;
    bool found = false;
    for (const char *seed : {"17", "7", "23", "41", "99", "3"}) {
        cfg = applyOverrides(base, {{"fault_seed", seed}});
        ok1 = minCompletingBudget([&](index_t w) {
            return completesOps(cfg, layer, data, w, 1);
        });
        ok12 = minCompletingBudget([&](index_t w) {
            return completesOps(cfg, layer, data, w, 2);
        });
        if (ok1 > 0 && ok12 > ok1) {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no fault seed stages an op-2-only deadlock";

    TempFile snap("test_service_resume.ckpt");
    EnvelopeOptions eo;
    eo.retry = false; // fail fast: the snapshot must survive failure
    eo.snapshot_path = snap.path;

    // Attempt under w: op 1 completes and snapshots, op 2 deadlocks.
    HardwareConfig tight = cfg;
    tight.watchdog_cycles = ok12 - 1;
    const JobOutcome staged =
        runJobEnvelope(tight, layer, std::nullopt, 42, 0.0, 2, eo);
    EXPECT_EQ(staged.status, "failed");
    EXPECT_EQ(staged.attempts, 1);
    ASSERT_TRUE(std::filesystem::exists(snap.path))
        << "the failed job must leave its snapshot for a resubmission";

    // Resubmission resumes op 2 from the snapshot instead of redoing
    // op 1.
    HardwareConfig generous = cfg;
    generous.watchdog_cycles = kGenerousWatchdog;
    const JobOutcome resumed =
        runJobEnvelope(generous, layer, std::nullopt, 42, 0.0, 2, eo);
    EXPECT_EQ(resumed.status, "done");
    EXPECT_EQ(resumed.attempts, 1);
    EXPECT_EQ(resumed.ops_resumed, 1);
    EXPECT_FALSE(std::filesystem::exists(snap.path))
        << "a completed job must clean up its snapshot";

    // Bit-parity: the resumed job's output equals an uninterrupted
    // two-op run's.
    TempFile ref_snap("test_service_resume_ref.ckpt");
    EnvelopeOptions ref_eo = eo;
    ref_eo.snapshot_path = ref_snap.path;
    const JobOutcome reference =
        runJobEnvelope(generous, layer, std::nullopt, 42, 0.0, 2, ref_eo);
    ASSERT_EQ(reference.status, "done");
    EXPECT_EQ(reference.ops_resumed, 0);
    EXPECT_EQ(resumed.output_crc32, reference.output_crc32);
    EXPECT_EQ(resumed.result.cycles, reference.result.cycles);
}

TEST(ServiceEnvelope, SecondIdenticalRunIsServedWarmFromTheCache)
{
    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);

    const std::string tail = R"(,"layer":)" + convJson() + "}";
    EXPECT_TRUE(daemon.handleLine(R"({"type":"run","id":"cold")" + tail));
    daemon.drain(); // the cache entry must exist before the resubmit
    EXPECT_TRUE(daemon.handleLine(R"({"type":"run","id":"warm")" + tail));
    daemon.finish();

    const auto responses = parseLines(out.str());
    const JsonValue *cold = findResult(responses, "cold");
    const JsonValue *warm = findResult(responses, "warm");
    ASSERT_NE(cold, nullptr);
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(cold->find("status")->asString(), "done");
    EXPECT_EQ(warm->find("status")->asString(), "done");
    EXPECT_FALSE(cold->find("service")->find("cache_hit")->asBool());
    EXPECT_TRUE(warm->find("service")->find("cache_hit")->asBool());

    const std::uint64_t cold_cycles = cold->find("summary")
                                          ->find("performance")
                                          ->find("cycles")
                                          ->asUint64();
    const std::uint64_t warm_cycles =
        warm->find("summary")->find("cycles")->asUint64();
    EXPECT_EQ(cold_cycles, warm_cycles);
    EXPECT_EQ(daemon.counters().cache_hits, 1u);
}

// --- fault isolation ---------------------------------------------------

TEST(ServiceDaemon, FaultyJobFailsAloneAndNeighborsStayBitIdentical)
{
    const FaultyWorld &fw = faultyWorld();
    ASSERT_GT(fw.ok_norm, 4);
    // Even the degraded attempt's 4x widening must stay below the
    // completion threshold: the job is beyond help.
    const index_t w = (fw.ok_norm - 1) / 4;
    ASSERT_GE(w, 1) << "thresholds leave no all-attempts-fail window";

    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 2;
    ServiceDaemon daemon(opts, out);

    const std::string tail = R"(,"layer":)" + convJson() + "}";
    EXPECT_TRUE(daemon.handleLine(R"({"type":"run","id":"h1")" + tail));
    EXPECT_TRUE(daemon.handleLine(faultyRunRequest("faulty", w, 2)));
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"run","id":"h2","use_cache":false)" + tail));
    daemon.finish();

    const auto responses = parseLines(out.str());

    // The faulty job failed its degraded retry too, and reported each
    // cause — without taking the daemon down.
    const JsonValue *faulty = findResult(responses, "faulty");
    ASSERT_NE(faulty, nullptr);
    EXPECT_EQ(faulty->find("status")->asString(), "failed");
    const JsonValue &svc = *faulty->find("service");
    EXPECT_EQ(svc.find("attempts")->asInt64(), 2);
    EXPECT_TRUE(svc.find("degraded")->asBool());
    ASSERT_EQ(svc.find("failures")->items().size(), 2u);
    for (const JsonValue &f : svc.find("failures")->items())
        EXPECT_FALSE(f.find("cause")->asString().empty());

    // The healthy neighbors are bit-identical to standalone runs.
    Stonne standalone(opts.base);
    const LayerData data = makeLayerData(convLayer(), 0.0, 42);
    runLayer(standalone, convLayer(), data);
    const Tensor &ref = standalone.output();
    const std::uint32_t ref_crc =
        crc32(reinterpret_cast<const std::uint8_t *>(ref.data()),
              static_cast<std::size_t>(ref.size()) * sizeof(float));

    for (const char *id : {"h1", "h2"}) {
        const JsonValue *r = findResult(responses, id);
        ASSERT_NE(r, nullptr) << id;
        EXPECT_EQ(r->find("status")->asString(), "done") << id;
        EXPECT_EQ(r->find("service")->find("output_crc32")->asUint64(),
                  ref_crc)
            << id;
    }

    const ServiceCounters counters = daemon.counters();
    EXPECT_EQ(counters.done, 2u);
    EXPECT_EQ(counters.failed, 1u);
    EXPECT_EQ(counters.retries, 1u);
}

TEST(ServiceDaemon, AnyPositiveRetriesGrantsTheOneDegradedRetry)
{
    // `retries` is a flag in all but name: 2^32 and INT_MAX grant the
    // same single degraded retry as 1 (neither may wrap to "no retry").
    const FaultyWorld &fw = faultyWorld();
    ASSERT_GT(fw.ok_norm, 1) << "no deterministic deadlock window";
    const index_t w = fw.ok_norm - 1;
    ASSERT_GE(4 * w, fw.ok_norm)
        << "4x widening cannot rescue this fault seed";

    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);
    EXPECT_TRUE(daemon.handleLine(faultyRunRequest("r2p32", w, 4294967296)));
    EXPECT_TRUE(daemon.handleLine(faultyRunRequest("rmax", w, 2147483647)));
    daemon.finish();

    const auto responses = parseLines(out.str());
    for (const char *id : {"r2p32", "rmax"}) {
        const JsonValue *r = findResult(responses, id);
        ASSERT_NE(r, nullptr) << id;
        EXPECT_EQ(r->find("status")->asString(), "done") << id;
        const JsonValue &svc = *r->find("service");
        EXPECT_EQ(svc.find("attempts")->asInt64(), 2) << id;
        EXPECT_TRUE(svc.find("degraded")->asBool()) << id;
    }
    EXPECT_EQ(daemon.counters().retries, 2u);
}

// --- graceful shutdown -------------------------------------------------

TEST(ServiceDaemon, ShutdownDrainsPersistsTheCacheAndLeavesNoDebris)
{
    TempFile cache_file("test_service_shutdown.cache");
    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    opts.cache_file = cache_file.path;
    ServiceDaemon daemon(opts, out);

    std::istringstream in(
        R"({"type":"run","id":"j1","layer":)" + convJson() + "}\n" +
        R"({"type":"shutdown"})" + "\n" +
        R"({"type":"run","id":"late","layer":)" + convJson() + "}\n");
    EXPECT_EQ(daemon.serve(in), 0);

    const auto responses = parseLines(out.str());
    const JsonValue *j1 = findResult(responses, "j1");
    ASSERT_NE(j1, nullptr);
    EXPECT_EQ(j1->find("status")->asString(), "done");
    // The line after shutdown was never read: no response for it.
    EXPECT_EQ(findResult(responses, "late"), nullptr);
    EXPECT_EQ(responses.back().find("type")->asString(), "bye");

    // The cache was persisted atomically: the file reloads, and no
    // half-written sibling is left behind.
    EXPECT_TRUE(std::filesystem::exists(cache_file.path));
    EXPECT_FALSE(std::filesystem::exists(cache_file.path + ".tmp"));
    explore::ResultCache reloaded(cache_file.path);
    EXPECT_EQ(reloaded.size(), 1u);
}

TEST(ServiceDaemon, StopFlagPreemptsTheServeLoop)
{
    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);

    // The CLI's SIGINT/SIGTERM handler sets this flag; the loop must
    // drain and exit 0 without reading further input.
    volatile std::sig_atomic_t stop = 1;
    std::istringstream in(R"({"type":"run","id":"never","layer":)" +
                          convJson() + "}\n");
    EXPECT_EQ(daemon.serve(in, &stop), 0);

    const auto responses = parseLines(out.str());
    ASSERT_FALSE(responses.empty());
    EXPECT_EQ(responses.back().find("type")->asString(), "bye");
    EXPECT_EQ(findResult(responses, "never"), nullptr);
    EXPECT_TRUE(daemon.shutdownRequested());
}

// --- tune jobs share the cache ----------------------------------------

TEST(ServiceDaemon, TuneJobWarmsTheCacheForRunJobs)
{
    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);

    const std::string layer = R"({"kind":"gemm","name":"g","M":16,)"
                              R"("N":16,"K":16})";
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"tune","id":"t1","top_k":2,"layer":)" + layer + "}"));
    daemon.drain();
    const std::size_t cache_after_tune = daemon.cache().size();
    EXPECT_GE(cache_after_tune, 2u); // top-k candidates were simulated

    // A run job on the tuned mapping is served warm: tuner keys and
    // envelope keys are byte-compatible.
    const auto tuned = parseLines(out.str());
    const JsonValue *t1 = findResult(tuned, "t1");
    ASSERT_NE(t1, nullptr);
    ASSERT_EQ(t1->find("status")->asString(), "done");
    const std::string tile =
        t1->find("summary")->find("chosen_tile")->asString();

    // chosen_tile renders canonically as "TRxTSxTCxTGxTKxTNxTXxTY".
    std::string json_tile = "[" + tile + "]";
    for (char &c : json_tile)
        if (c == 'x')
            c = ',';

    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"run","id":"warm","tile":)" + json_tile +
        R"(,"layer":)" + layer + "}"));
    daemon.finish();

    const auto responses = parseLines(out.str());
    const JsonValue *warm = findResult(responses, "warm");
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(warm->find("status")->asString(), "done");
    EXPECT_TRUE(warm->find("service")->find("cache_hit")->asBool());
}

TEST(ServiceDaemon, TuneJobBudgetTimesOutTerminally)
{
    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);

    // No candidate of this conv finishes in 8 cycles: the tune crosses
    // its budget and ends exactly like a run job does.
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"tune","id":"tight","budget_cycles":8,"layer":)" +
        convJson() + "}"));
    daemon.finish();

    const auto responses = parseLines(out.str());
    const JsonValue *r = findResult(responses, "tight");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->find("status")->asString(), "timeout");
    EXPECT_NE(r->find("error")->asString().find("budget"),
              std::string::npos);
    const JsonValue &svc = *r->find("service");
    EXPECT_EQ(svc.find("attempts")->asInt64(), 1);
    EXPECT_EQ(svc.find("failures")->items().size(), 1u);
    EXPECT_EQ(daemon.counters().timeout, 1u);
    EXPECT_EQ(daemon.counters().failed, 0u);
    EXPECT_EQ(daemon.counters().retries, 0u);
}

// --- shutdown vs. submit ordering -------------------------------------

TEST(ServiceDaemon, ShutdownBeatsConcurrentSubmitDeterministically)
{
    // The admission checks (shutdown, duplicate id, queue space) and
    // the pool hand-off sit under one lock, so a submission racing a
    // shutdown resolves to exactly one outcome: `shutting_down` — even
    // when the queue is also full, which used to win the race and
    // misreport `queue_full`.
    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_queue_depth = 1;
    opts.base.service_workers = 1;
    opts.start_workers = false; // "a" stays queued: the queue is full
    ServiceDaemon daemon(opts, out);

    const std::string tail = R"(,"layer":)" + convJson() + "}";
    EXPECT_TRUE(daemon.handleLine(R"({"type":"run","id":"a")" + tail));

    std::thread shutter([&daemon] { daemon.requestShutdown(); });
    shutter.join(); // deterministic interleaving: shutdown first
    EXPECT_TRUE(daemon.shutdownRequested());

    // handleLine signals the serve loop to stop (false), but the
    // submission itself still gets a structured rejection.
    EXPECT_FALSE(daemon.handleLine(R"({"type":"run","id":"b")" + tail));
    daemon.finish(); // the paused pool spins up and drains "a"

    const auto responses = parseLines(out.str());
    const JsonValue *a = findResult(responses, "a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->find("status")->asString(), "done");

    const JsonValue *b = findResult(responses, "b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->find("status")->asString(), "rejected");
    EXPECT_EQ(b->find("code")->asString(), kErrShuttingDown);
}

// --- run_model: full-model (multi-core) jobs --------------------------

TEST(ServiceProtocol, RunModelRequestsParseStrictly)
{
    const JobRequest req = parseRequest(
        R"({"type":"run_model","id":"m1",)"
        R"("config":"configs/maeri_128_x2.cfg",)"
        R"("model":"models/resnet_block.model","batch":3,"seed":9})");
    EXPECT_EQ(req.type, RequestType::RunModel);
    EXPECT_EQ(req.model_path, "models/resnet_block.model");
    EXPECT_EQ(req.batch, 3);
    EXPECT_EQ(req.seed, 9u);

    // `model` is required, `batch` must be >= 1, and run-only members
    // (layer, tile) are unknown in a run_model request.
    EXPECT_EQ(protoCode(R"({"type":"run_model","id":"m2"})"),
              kErrBadRequest);
    EXPECT_EQ(protoCode(R"({"type":"run_model","id":"m3",)"
                        R"("model":"m.model","batch":0})"),
              kErrBadRequest);
    EXPECT_EQ(protoCode(R"({"type":"run_model","id":"m4",)"
                        R"("model":"m.model","layer":)" +
                        convJson() + "}"),
              kErrBadRequest);
}

TEST(ServiceDaemon, RunModelJobReportsPerCoreDramCounters)
{
    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);

    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"run_model","id":"mc",)"
        R"("config":"configs/maeri_128_x2.cfg",)"
        R"("model":"models/resnet_block.model","batch":2})"));
    daemon.finish();

    const auto responses = parseLines(out.str());
    const JsonValue *mc = findResult(responses, "mc");
    ASSERT_NE(mc, nullptr);
    ASSERT_EQ(mc->find("status")->asString(), "done");
    const JsonValue *summary = mc->find("summary");
    ASSERT_NE(summary, nullptr);
    ASSERT_NE(summary->find("per_core"), nullptr);
    const auto &cores = summary->find("per_core")->items();
    ASSERT_EQ(cores.size(), 2u);
    for (const JsonValue &core : cores) {
        ASSERT_NE(core.find("dram_stall_cycles"), nullptr);
        EXPECT_GT(core.find("cycles")->asUint64(), 0u);
    }
    EXPECT_EQ(mc->find("service")->find("batch")->asInt64(), 2);
}

TEST(ServiceDaemon, SingleAcceleratorJobsRejectMultiCoreConfigs)
{
    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);

    // run and tune target exactly one accelerator; a cores > 1 config
    // must be turned away at admission, pointing at run_model.
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"run","id":"r2",)"
        R"("config":"configs/maeri_128_x2.cfg","layer":)" +
        convJson() + "}"));
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"tune","id":"t2",)"
        R"("config":"configs/maeri_128_x2.cfg","layer":)" +
        convJson() + "}"));
    daemon.finish();

    const auto responses = parseLines(out.str());
    for (const char *id : {"r2", "t2"}) {
        const JsonValue *r = findResult(responses, id);
        ASSERT_NE(r, nullptr) << id;
        EXPECT_EQ(r->find("status")->asString(), "rejected") << id;
        EXPECT_EQ(r->find("code")->asString(), kErrBadConfig) << id;
        // The rejection is actionable: it names the offending key and
        // the job type that does own multi-core compositions.
        const std::string msg = r->find("message")->asString();
        EXPECT_NE(msg.find("'cores'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("run_model"), std::string::npos) << msg;
    }
    EXPECT_EQ(daemon.counters().rejected, 2u);
}

TEST(ServiceDaemon, RunModelQuarantinesTheSickCoreAndMatchesHealthyCrc)
{
    // The healthy twin of the shipped faulty composition, written next
    // to it so the daemon resolves both through the same loader.
    TempFile healthy_cfg("test_service_healthy_x2.cfg");
    {
        std::ifstream is("configs/maeri_128_x2_faulty.cfg");
        std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        ASSERT_FALSE(text.empty());
        const std::size_t at = text.find("faults = ON");
        ASSERT_NE(at, std::string::npos);
        text.replace(at, std::strlen("faults = ON"), "faults = OFF");
        std::ofstream os(healthy_cfg.path, std::ios::trunc);
        os << text;
        ASSERT_TRUE(static_cast<bool>(os));
    }

    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);

    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"run_model","id":"fq",)"
        R"("config":"configs/maeri_128_x2_faulty.cfg",)"
        R"("model":"models/resnet_block.model"})"));
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"run_model","id":"fh",)"
        R"("config":")" + healthy_cfg.path + R"(",)"
        R"("model":"models/resnet_block.model"})"));
    EXPECT_TRUE(daemon.handleLine(R"({"type":"stats"})"));
    daemon.finish();

    const auto responses = parseLines(out.str());

    // The sick composition completes degraded: core 1 benched inside
    // the first attempt (no retry consumed), core 0 finishing alone.
    const JsonValue *fq = findResult(responses, "fq");
    ASSERT_NE(fq, nullptr);
    ASSERT_EQ(fq->find("status")->asString(), "done");
    const JsonValue *svc = fq->find("service");
    ASSERT_NE(svc, nullptr);
    EXPECT_EQ(svc->find("attempts")->asInt64(), 1);
    EXPECT_EQ(svc->find("migrations")->asUint64(), 1u);
    const auto &degraded = svc->find("degraded_cores")->items();
    ASSERT_EQ(degraded.size(), 1u);
    EXPECT_EQ(degraded.front().asInt64(), 1);
    const auto &finished = svc->find("cores_finished")->items();
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished.front().asInt64(), 0);

    // The quarantine streamed as its own status event.
    const auto states = statusStates(responses, "fq");
    EXPECT_NE(std::find(states.begin(), states.end(), "quarantined"),
              states.end());

    // Degraded-mode completion is not approximate completion: the
    // output CRC matches the fault-free twin bit for bit.
    const JsonValue *fh = findResult(responses, "fh");
    ASSERT_NE(fh, nullptr);
    ASSERT_EQ(fh->find("status")->asString(), "done");
    EXPECT_EQ(svc->find("output_crc32")->asUint64(),
              fh->find("service")->find("output_crc32")->asUint64());
    EXPECT_EQ(fh->find("service")->find("migrations")->asUint64(), 0u);

    // The lifetime counters saw the bench.
    EXPECT_GE(daemon.counters().quarantines, 1u);
    for (const JsonValue &r : responses) {
        if (r.find("type") && r.find("type")->asString() == "stats") {
            ASSERT_NE(r.find("quarantines"), nullptr);
        }
    }
}

TEST(ServiceDaemon, FaultyRunModelLeavesTheLoadedModelIntact)
{
    // run_model jobs of one model share its weights with the loader's
    // memo. Bit flips in a faulty job must land in its own staged
    // copies: a later job, and a later load, see the clean weights.
    const std::string path = "models/resnet_block.model";
    const auto weightCrc = [](const DnnModel &m) {
        std::vector<std::uint8_t> bytes;
        for (const DnnLayer &l : m.layers) {
            const auto *p =
                reinterpret_cast<const std::uint8_t *>(l.weights.data());
            bytes.insert(bytes.end(), p, p + l.weights.size() * 4);
        }
        return crc32(bytes.data(), bytes.size());
    };
    const DnnModel before = loadModelFromFile(path, 42);
    const std::uint32_t clean = weightCrc(before);

    std::ostringstream out;
    ServiceOptions opts;
    opts.base = HardwareConfig::maeriLike(64, 16);
    opts.base.service_workers = 1;
    ServiceDaemon daemon(opts, out);
    const std::string model = R"(,"model":")" + path + R"(","seed":42})";
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"run_model","id":"clean1","preset":"maeri","ms":64,)"
        R"("bw":16)" + model));
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"run_model","id":"flipped","preset":"maeri","ms":64,)"
        R"("bw":16,"overrides":{"faults":"ON","fault_seed":3,)"
        R"("fault_dram_bitflip_rate":0.02})" + model));
    EXPECT_TRUE(daemon.handleLine(
        R"({"type":"run_model","id":"clean2","preset":"maeri","ms":64,)"
        R"("bw":16)" + model));
    daemon.finish();

    const auto responses = parseLines(out.str());
    const auto crcOf = [&](const char *id) {
        const JsonValue *r = findResult(responses, id);
        EXPECT_NE(r, nullptr) << id;
        EXPECT_EQ(r ? r->find("status")->asString() : "", "done") << id;
        return r ? r->find("service")->find("output_crc32")->asUint64() : 0;
    };
    EXPECT_NE(crcOf("flipped"), crcOf("clean1"));
    EXPECT_EQ(crcOf("clean2"), crcOf("clean1"));

    // Still the memo's model (the jobs hit it), with every bit clean.
    const DnnModel after = loadModelFromFile(path, 42);
    EXPECT_EQ(after.layers.front().weights.data(),
              before.layers.front().weights.data());
    EXPECT_EQ(weightCrc(before), clean);
    EXPECT_EQ(weightCrc(after), clean);
}

} // namespace
} // namespace stonne::service
