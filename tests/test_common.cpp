/**
 * @file
 * Unit tests for the common infrastructure: logging, stats registry,
 * JSON writer, hardware configuration, RNG determinism and bit parity
 * with libstdc++'s engine and float distributions.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json_writer.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/rng_kernels.hpp"
#include "common/stats.hpp"

namespace stonne {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug ", "here"), PanicError);
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "nope"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(panicIf(false, "nope"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
}

TEST(Logging, MessageCarriesFormattedArguments)
{
    try {
        fatal("value=", 7, " name=", "x");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: value=7 name=x");
    }
}

TEST(Types, Log2CeilMatchesTheDoublingLoop)
{
    for (index_t v = -2; v <= 4096; ++v) {
        index_t levels = 0;
        for (index_t p = 1; p < v; p <<= 1)
            ++levels;
        ASSERT_EQ(log2Ceil(v), levels) << "v = " << v;
    }
    EXPECT_EQ(log2Ceil(0), 0);
    EXPECT_EQ(log2Ceil(1), 0);
    EXPECT_EQ(log2Ceil(index_t{1} << 40), 40);
    EXPECT_EQ(log2Ceil((index_t{1} << 40) + 1), 41);
}

TEST(Logging, WarnAlwaysReachesStderr)
{
    testing::internal::CaptureStderr();
    warn("trace '", "x.trace.json", "' reached ", 3, " events");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: trace 'x.trace.json' reached 3 events\n");
}

TEST(Stats, CountersAccumulate)
{
    StatsRegistry reg;
    StatCounter &c = reg.counter("mn.mult_ops",
                                 StatGroup::MultiplierNetwork);
    c.value += 5;
    c.value += 7;
    EXPECT_EQ(reg.value("mn.mult_ops"), 12u);
}

TEST(Stats, UnknownCounterReadsZero)
{
    StatsRegistry reg;
    EXPECT_EQ(reg.value("does.not.exist"), 0u);
}

TEST(Stats, CounterKindIsSticky)
{
    StatsRegistry reg;
    reg.counter("gb.reads", StatGroup::GlobalBuffer).value = 4;
    StatCounter &occ = reg.counter("gb.write_queue_occ",
                                   StatGroup::GlobalBuffer,
                                   StatKind::Occupancy);
    occ.value = 9;
    EXPECT_EQ(occ.kind, StatKind::Occupancy);
    // Re-registering with another kind is a modelling bug.
    EXPECT_THROW(reg.counter("gb.write_queue_occ",
                             StatGroup::GlobalBuffer,
                             StatKind::Activity),
                 PanicError);
    EXPECT_EQ(reg.counters().back().kind, StatKind::Occupancy);
}

TEST(Stats, GroupTotalsSumOnlyOwnGroup)
{
    StatsRegistry reg;
    reg.counter("a", StatGroup::GlobalBuffer).value = 3;
    reg.counter("b", StatGroup::GlobalBuffer).value = 4;
    reg.counter("c", StatGroup::ReductionNetwork).value = 100;
    EXPECT_EQ(reg.groupTotal(StatGroup::GlobalBuffer), 7u);
    EXPECT_EQ(reg.groupTotal(StatGroup::ReductionNetwork), 100u);
    EXPECT_EQ(reg.groupTotal(StatGroup::Dram), 0u);
}

TEST(Stats, ReRegisteringSameNameReturnsSameCounter)
{
    StatsRegistry reg;
    StatCounter &a = reg.counter("x", StatGroup::Other);
    StatCounter &b = reg.counter("x", StatGroup::Other);
    EXPECT_EQ(&a, &b);
}

TEST(Stats, ReRegisteringInDifferentGroupPanics)
{
    StatsRegistry reg;
    reg.counter("x", StatGroup::Other);
    EXPECT_THROW(reg.counter("x", StatGroup::GlobalBuffer), PanicError);
}

TEST(Json, ScalarsRender)
{
    EXPECT_EQ(JsonValue::makeInt(-3).dump(), "-3");
    EXPECT_EQ(JsonValue::makeBool(true).dump(), "true");
    EXPECT_EQ(JsonValue::makeString("hi").dump(), "\"hi\"");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    JsonValue j = JsonValue::makeObject();
    j.set("zeta", std::int64_t{1});
    j.set("alpha", std::int64_t{2});
    const std::string s = j.dump();
    EXPECT_LT(s.find("zeta"), s.find("alpha"));
}

TEST(Json, StringsAreEscaped)
{
    JsonValue j = JsonValue::makeString("a\"b\\c\nd");
    EXPECT_EQ(j.dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, ControlCharactersAreEscaped)
{
    // RFC 8259 requires every byte below 0x20 escaped; short forms for
    // the named controls, \u00XX for the rest.
    JsonValue j = JsonValue::makeString("a\rb\x01" "c\fd\be\x1f");
    EXPECT_EQ(j.dump(), "\"a\\rb\\u0001c\\fd\\be\\u001f\"");
}

TEST(Json, UnsignedValuesKeepTheFullRange)
{
    // Counters are uint64; a value above INT64_MAX must not wrap into
    // a negative number on its way through the writer.
    EXPECT_EQ(JsonValue::makeUint(18446744073709551615ull).dump(),
              "18446744073709551615");
    JsonValue obj = JsonValue::makeObject();
    obj.set("big", std::uint64_t{9223372036854775808ull});
    EXPECT_NE(obj.dump().find("\"big\": 9223372036854775808"),
              std::string::npos);
    EXPECT_EQ(obj.dump().find('-'), std::string::npos);
}

TEST(Json, NestedStructureRoundTrips)
{
    JsonValue j = JsonValue::makeObject();
    j["perf"].set("cycles", std::uint64_t{123});
    j["list"] = JsonValue::makeArray();
    j["list"].append(JsonValue::makeInt(1));
    j["list"].append(JsonValue::makeInt(2));
    const std::string s = j.dump();
    EXPECT_NE(s.find("\"cycles\": 123"), std::string::npos);
    EXPECT_NE(s.find('['), std::string::npos);
}

TEST(Config, PresetsMatchTableIV)
{
    const HardwareConfig tpu = HardwareConfig::tpuLike();
    EXPECT_EQ(tpu.dn_type, DnType::PointToPoint);
    EXPECT_EQ(tpu.mn_type, MnType::Linear);
    EXPECT_EQ(tpu.rn_type, RnType::Linear);
    EXPECT_EQ(tpu.controller_type, ControllerType::Dense);

    const HardwareConfig maeri = HardwareConfig::maeriLike();
    EXPECT_EQ(maeri.dn_type, DnType::Tree);
    EXPECT_EQ(maeri.mn_type, MnType::Linear);
    EXPECT_EQ(maeri.rn_type, RnType::ArtAcc);
    EXPECT_EQ(maeri.controller_type, ControllerType::Dense);

    const HardwareConfig sigma = HardwareConfig::sigmaLike();
    EXPECT_EQ(sigma.dn_type, DnType::Benes);
    EXPECT_EQ(sigma.mn_type, MnType::Disabled);
    EXPECT_EQ(sigma.rn_type, RnType::Fan);
    EXPECT_EQ(sigma.controller_type, ControllerType::Sparse);
}

TEST(Config, ParseRoundTrip)
{
    const HardwareConfig orig = HardwareConfig::sigmaLike(128, 64);
    const HardwareConfig parsed = HardwareConfig::parse(
        orig.toConfigText());
    EXPECT_EQ(parsed.dn_type, orig.dn_type);
    EXPECT_EQ(parsed.rn_type, orig.rn_type);
    EXPECT_EQ(parsed.controller_type, orig.controller_type);
    EXPECT_EQ(parsed.ms_size, orig.ms_size);
    EXPECT_EQ(parsed.dn_bandwidth, orig.dn_bandwidth);
}

TEST(Config, ParseAcceptsCommentsAndSections)
{
    const HardwareConfig c = HardwareConfig::parse(
        "# a comment\n[hardware]\nms_size = 64 # trailing\n"
        "dn_type = TREE\ndn_bandwidth=16\nrn_bandwidth = 16\n");
    EXPECT_EQ(c.ms_size, 64);
    EXPECT_EQ(c.dn_bandwidth, 16);
}

TEST(Config, RejectsUnknownKey)
{
    EXPECT_THROW(HardwareConfig::parse("bogus_key = 1\n"), FatalError);
}

TEST(Config, RejectsNonIntegerValue)
{
    EXPECT_THROW(HardwareConfig::parse("ms_size = lots\n"), FatalError);
}

TEST(Config, RejectsTrailingGarbageAfterNumbers)
{
    // stoll/stod stop at the first bad character, so without the
    // full-consumption check these silently parse as 8 and 1.5.
    try {
        HardwareConfig::parse("ms_size = 8x\n", "test.cfg");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("test.cfg:1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("trailing characters"), std::string::npos)
            << msg;
    }
    EXPECT_THROW(HardwareConfig::parse("dram_bandwidth_gbps = 1.5GB\n"),
                 FatalError);
    EXPECT_THROW(HardwareConfig::parse("clock_ghz = 1.0 1.0\n"),
                 FatalError);
}

TEST(Config, RejectsNonPowerOfTwoArray)
{
    HardwareConfig c = HardwareConfig::maeriLike();
    c.ms_size = 100;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Config, RejectsBandwidthAboveArraySize)
{
    HardwareConfig c = HardwareConfig::maeriLike(64, 64);
    c.dn_bandwidth = 128;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Config, RejectsIncompatibleSparseComposition)
{
    HardwareConfig c = HardwareConfig::sigmaLike();
    c.rn_type = RnType::Linear;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Config, RejectsSystolicWithClusterRn)
{
    HardwareConfig c = HardwareConfig::tpuLike();
    c.rn_type = RnType::Fan;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, IntegerRangeIsInclusive)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.integer(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

// --- Parity with libstdc++ -------------------------------------------
// Rng reimplements std::mt19937_64 and the float distributions value for
// value (the model-zoo goldens pin the values). The library is the
// oracle here.

constexpr std::uint64_t kParitySeeds[] = {0, 1, 42, 0x570AA1u,
                                          ~std::uint64_t{0}};

TEST(Rng, EngineMatchesStdMt19937_64)
{
    for (const std::uint64_t seed : kParitySeeds) {
        Mt19937_64 ours(seed);
        std::mt19937_64 theirs(seed);
        for (int i = 0; i < 1'000'000; ++i)
            ASSERT_EQ(ours(), theirs()) << "seed " << seed << " draw " << i;
    }
}

/** A URBG that returns one fixed value, to probe generate_canonical. */
struct FixedBits {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type v;
    result_type operator()() { return v; }
};

TEST(Rng, CanonicalFloatMatchesGenerateCanonical)
{
    // Rounding boundaries of the uint64 -> float conversion on both of
    // its paths, the clamp below 1, and random bit patterns.
    std::vector<std::uint64_t> vs = {0, 1, 2, 3, (1ull << 24) - 1,
                                     (1ull << 24) + 1, (1ull << 25) + 1,
                                     (1ull << 25) + 3, (1ull << 63) - 1,
                                     1ull << 63, (1ull << 63) + 1,
                                     ~std::uint64_t{0}};
    for (int shift = 24; shift < 64; ++shift) {
        const std::uint64_t one = 1ull << shift;
        const std::uint64_t half = one >> 24; // half a float ulp at 2^shift
        for (const std::uint64_t d : {half - 1, half, half + 1}) {
            vs.push_back(one + d);
            vs.push_back(one + 2 * half + d); // odd mantissa
            vs.push_back(~std::uint64_t{0} - d);
        }
    }
    std::mt19937_64 bits(9);
    for (int i = 0; i < 100'000; ++i)
        vs.push_back(bits() >> (i % 64));
    for (const std::uint64_t v : vs) {
        FixedBits g{v};
        const float want = std::generate_canonical<float, 24>(g);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(canonicalFloat(v)),
                  std::bit_cast<std::uint32_t>(want))
            << "v = " << v;
    }
}

TEST(Rng, DrawsMatchStdDistributionsBitForBit)
{
    const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
    for (const std::uint64_t seed : kParitySeeds) {
        Rng ours(seed);
        std::mt19937_64 theirs(seed);
        std::mt19937_64 pick(seed + 1);
        for (int i = 0; i < 1'000'000; ++i) {
            switch (pick() % 6) {
              case 0: {
                std::normal_distribution<float> d(0.0f, 1.0f);
                ASSERT_EQ(bits(ours.normal()), bits(d(theirs))) << i;
                break;
              }
              case 1: {
                std::normal_distribution<float> d(0.25f, 0.0625f);
                ASSERT_EQ(bits(ours.normal(0.25f, 0.0625f)),
                          bits(d(theirs))) << i;
                break;
              }
              case 2: {
                std::uniform_real_distribution<float> d(-1.0f, 1.0f);
                ASSERT_EQ(bits(ours.uniform()), bits(d(theirs))) << i;
                break;
              }
              case 3: {
                std::uniform_real_distribution<float> d(-0.45f, 0.05f);
                ASSERT_EQ(bits(ours.uniform(-0.45f, 0.05f)),
                          bits(d(theirs))) << i;
                break;
              }
              case 4: {
                std::uniform_int_distribution<std::int64_t> d(-3, 31);
                ASSERT_EQ(ours.integer(-3, 31), d(theirs)) << i;
                break;
              }
              default: {
                std::bernoulli_distribution d(0.3);
                ASSERT_EQ(ours.chance(0.3), d(theirs)) << i;
                break;
              }
            }
        }
        // Still in lockstep after the mix.
        EXPECT_EQ(ours.engine()(), theirs());
    }
}

// --- Bulk fills against per-draw draws --------------------------------
// Rng::fillNormal and Rng::fillUniform dispatch to one of two kernels
// (common/rng_kernels.hpp). Each kernel is held to the per-draw values
// here, the one this CPU does not dispatch to included.

using Fill = std::function<void(Rng &, float *, std::size_t)>;

/** Raw draws made before a fill: odd and even positions, and fills that
 *  start one word before, at and just after a block boundary. */
constexpr int kSkips[] = {0, 1, 2, 155, 156, 311, 312, 313};

/**
 * For every seed and every skip in kSkips: makes `skip` raw draws, then
 * runs fill for each n in ns in turn, checking every value against
 * next() on a twin engine and that both engines end each fill in the
 * same state.
 */
void
expectFillMatchesPerDraw(const Fill &fill,
                         const std::function<float(Rng &)> &next,
                         std::initializer_list<std::size_t> ns)
{
    for (const std::uint64_t seed : kParitySeeds) {
        for (const int skip : kSkips) {
            Rng bulk(seed), single(seed);
            for (int i = 0; i < skip; ++i) {
                bulk.engine()();
                single.engine()();
            }
            for (const std::size_t n : ns) {
                std::vector<float> got(n);
                fill(bulk, got.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                              std::bit_cast<std::uint32_t>(next(single)))
                        << "seed " << seed << " skip " << skip << " n " << n
                        << " i " << i;
                ASSERT_TRUE(bulk.engine() == single.engine())
                    << "seed " << seed << " skip " << skip << " n " << n;
            }
        }
    }
}

/** Lengths around a block's 156 pairs and the portable kernel's
 *  256-value chunk. */
void
expectFillNormalMatchesPerDraw(const Fill &fill)
{
    expectFillMatchesPerDraw(
        fill, [](Rng &r) { return r.normal(0.5f, 0.03f); },
        {0, 1, 155, 156, 157, 255, 256, 257, 100'003});
}

/** Lengths around one 8-lane step and one 312-word block. */
void
expectFillUniformMatchesPerDraw(const Fill &fill)
{
    expectFillMatchesPerDraw(
        fill, [](Rng &r) { return r.uniform(-0.45f, 0.05f); },
        {0, 1, 7, 8, 9, 311, 312, 313, 100'003});
}

TEST(Rng, BulkFillNormalMatchesPerDrawNormal)
{
    expectFillNormalMatchesPerDraw([](Rng &r, float *out, std::size_t n) {
        rng_kernels::fillNormalPortable(r.engine(), out, n, 0.5f, 0.03f);
    });
    // The kernel this CPU dispatches to.
    expectFillNormalMatchesPerDraw([](Rng &r, float *out, std::size_t n) {
        r.fillNormal(out, n, 0.5f, 0.03f);
    });
}

TEST(Rng, BulkFillUniformMatchesPerDrawUniform)
{
    expectFillUniformMatchesPerDraw([](Rng &r, float *out, std::size_t n) {
        rng_kernels::fillUniformPortable(r.engine(), out, n, -0.45f, 0.05f);
    });
    expectFillUniformMatchesPerDraw([](Rng &r, float *out, std::size_t n) {
        r.fillUniform(out, n, -0.45f, 0.05f);
    });
}

#if STONNE_RNG_AVX512

/** Skips the calling test on CPUs that do not run the AVX-512 kernels. */
#define SKIP_WITHOUT_AVX512()                                          \
    if (!rng_kernels::avx512())                                        \
    GTEST_SKIP() << "this CPU lacks AVX-512F/DQ/VL, so only the "      \
                    "portable kernel runs here"

TEST(Rng, Avx512FillNormalMatchesPerDrawNormal)
{
    SKIP_WITHOUT_AVX512();
    expectFillNormalMatchesPerDraw([](Rng &r, float *out, std::size_t n) {
        rng_kernels::fillNormalAvx512(r.engine(), out, n, 0.5f, 0.03f);
    });
}

TEST(Rng, Avx512FillUniformMatchesPerDrawUniform)
{
    SKIP_WITHOUT_AVX512();
    expectFillUniformMatchesPerDraw([](Rng &r, float *out, std::size_t n) {
        rng_kernels::fillUniformAvx512(r.engine(), out, n, -0.45f, 0.05f);
    });
}

TEST(Rng, CandidateKernelsAgreeOnEdgeWords)
{
    SKIP_WITHOUT_AVX512();
    constexpr std::uint64_t kTop = 1ull << 63;
    constexpr std::uint64_t kAll = ~std::uint64_t{0};
    // Both conversion paths' ends, and words whose float rounds to 2^64
    // or lands on 1 - 2^-24, so canonicalFloat clamps or meets the clamp.
    const std::vector<std::uint64_t> edge = {
        0, 1, kTop - 1, kTop, kTop + 1, kAll, kAll - (1ull << 39) + 1,
        kAll - (1ull << 39), kAll - (1ull << 40) + 1, kAll - (1ull << 40),
        3ull << 62, 1ull << 62};
    ASSERT_EQ(canonicalFloat(kAll), 0x1.fffffep-1f);
    ASSERT_EQ(canonicalFloat(kAll - (1ull << 40)), 0x1.fffffep-1f);

    // Every ordered pair of edge words, then random pairs.
    std::vector<std::uint64_t> w;
    for (const std::uint64_t a : edge)
        for (const std::uint64_t b : edge) {
            w.push_back(a);
            w.push_back(b);
        }
    std::mt19937_64 bits(5);
    for (int i = 0; i < 4000; ++i)
        w.push_back(bits());
    const std::size_t pairs = w.size() / 2;

    // r2 exactly 0 (rejected) and exactly 1 (accepted) are among them.
    float y, r2;
    EXPECT_FALSE(polarTrial(kTop, kTop, y, r2));
    EXPECT_EQ(r2, 0.0f);
    EXPECT_TRUE(polarTrial(0, kTop, y, r2));
    EXPECT_EQ(r2, 1.0f);
    EXPECT_TRUE(polarTrial(kTop, 0, y, r2));
    EXPECT_EQ(r2, 1.0f);

    std::vector<float> want_y, want_r2;
    for (std::size_t i = 0; i < pairs; ++i)
        if (polarTrial(w[2 * i], w[2 * i + 1], y, r2)) {
            want_y.push_back(y);
            want_r2.push_back(r2);
        }

    // Every prefix length up to 40 pairs covers each tail width, then
    // the whole array.
    const auto bitsOf = [](float f) { return std::bit_cast<std::uint32_t>(f); };
    for (std::size_t len = 0; len <= pairs; len = len < 40 ? len + 1 : pairs) {
        std::vector<float> ys(len + 8), r2s(len + 8);
        const std::size_t m =
            rng_kernels::polarCandidatesAvx512(w.data(), len, ys.data(),
                                               r2s.data());
        std::size_t expect_m = 0;
        for (std::size_t i = 0; i < len; ++i)
            expect_m += polarTrial(w[2 * i], w[2 * i + 1], y, r2);
        ASSERT_EQ(m, expect_m) << len << " pairs";
        for (std::size_t i = 0; i < m; ++i) {
            ASSERT_EQ(bitsOf(ys[i]), bitsOf(want_y[i])) << len << " " << i;
            ASSERT_EQ(bitsOf(r2s[i]), bitsOf(want_r2[i])) << len << " " << i;
        }
        if (len == pairs)
            break;
    }
}

#endif // STONNE_RNG_AVX512

TEST(Rng, StateTextMatchesStdEngine)
{
    for (const int draws : {0, 1, 311, 312, 313, 5000}) {
        Mt19937_64 ours(0x570AA1u);
        std::mt19937_64 theirs(0x570AA1u);
        for (int i = 0; i < draws; ++i) {
            ours();
            theirs();
        }
        std::ostringstream a, b;
        a << ours;
        b << theirs;
        ASSERT_EQ(a.str(), b.str()) << draws << " draws";

        // The library's text restores into Mt19937_64 (and back).
        Mt19937_64 restored(7);
        std::istringstream in(b.str());
        in >> restored;
        ASSERT_TRUE(static_cast<bool>(in));
        EXPECT_TRUE(restored == ours);
        std::mt19937_64 back(7);
        std::istringstream in2(a.str());
        in2 >> back;
        EXPECT_EQ(back, theirs);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(restored(), theirs());
    }
}

TEST(Rng, TruncatedStateTextLeavesTheEngineUnchanged)
{
    Mt19937_64 e(3);
    std::ostringstream os;
    os << Mt19937_64(11);
    const std::string text = os.str();
    std::istringstream in(text.substr(0, text.size() / 2));
    in >> e;
    EXPECT_FALSE(static_cast<bool>(in));
    EXPECT_TRUE(e == Mt19937_64(3));
}

} // namespace
} // namespace stonne
