/**
 * @file
 * Checks of the benchmark's own helpers: percentile ranks, span
 * self-time attribution and the closed-loop clients' job scripts.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "metrics.hpp"
#include "service_script.hpp"

namespace perfbench {
namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

TEST(Percentile, NearestRankWithSampleCount)
{
    const Percentile p99 = percentile(oneTo(100), 99);
    EXPECT_EQ(p99.value, 99.0);
    EXPECT_EQ(p99.samples, 100u);
    EXPECT_EQ(p99.beyond, 1u);

    const Percentile p50 = percentile(oneTo(100), 50);
    EXPECT_EQ(p50.value, 50.0);
    EXPECT_EQ(p50.beyond, 50u);

    // 1000 samples leave ten beyond p99.
    EXPECT_EQ(percentile(oneTo(1000), 99).beyond, 10u);
    // Rank ceil(0.99 * 7) = 7: the maximum, nothing beyond.
    const Percentile small = percentile(oneTo(7), 99);
    EXPECT_EQ(small.value, 7.0);
    EXPECT_EQ(small.beyond, 0u);
    EXPECT_EQ(percentile({4.0}, 50).value, 4.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.0);
}

TEST(Percentile, RejectsEmptySamplesAndBadRanks)
{
    EXPECT_THROW(percentile({}, 50), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 0), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

Span
span(int id, int parent, std::int64_t start, std::int64_t end)
{
    Span s;
    s.name = "s" + std::to_string(id);
    s.id = id;
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    const std::vector<Span> spans = {
        span(0, -1, 0, 100),
        span(1, 0, 10, 30),
        span(2, 0, 20, 50), // overlaps child 1: covered once
        span(3, 0, 90, 120), // runs past its parent: clipped
        span(4, 1, 12, 14),  // grandchild: counts against 1, not 0
    };
    const std::vector<std::int64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20 - 2);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 2);

    const auto by_name = selfSecondsByName(spans);
    EXPECT_DOUBLE_EQ(by_name.at("s0"), 50e-9);
}

TEST(SelfTime, UnionLengthMergesOverlapsAndSkipsEmpty)
{
    EXPECT_EQ(unionLength({{0, 10}, {5, 15}, {20, 25}, {30, 30}}), 20);
    EXPECT_EQ(unionLength({}), 0);
}

TEST(SelfTime, TracerRecordsParentsPerThread)
{
    Tracer t(true);
    {
        Tracer::Scope outer(t, "outer", 7);
        Tracer::Scope inner(t, "inner", 7);
    }
    Tracer::Scope after(t, "after", 8);
    const std::vector<Span> spans = t.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, -1);
    EXPECT_EQ(spans[1].run, 7);

    Tracer off(false);
    Tracer::Scope nothing(off, "x", 0);
    EXPECT_TRUE(off.spans().empty());
}

const JobMix kTestMix = {{40, 32, 6, 14, 8}};

TEST(ClientScript, SameSeedSameScript)
{
    const auto a = makeClientScript(5, 0, kTestMix);
    const auto b = makeClientScript(5, 0, kTestMix);
    ASSERT_EQ(a.size(), 100u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].key, b[i].key);
    }
    // Another client draws another order; another seed keeps the order
    // of kinds and draws other warm keys.
    const auto other = makeClientScript(5, 1, kTestMix);
    const auto reseeded = makeClientScript(6, 0, kTestMix);
    bool differs = false, differs_seed = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        differs |= a[i].kind != other[i].kind;
        EXPECT_EQ(a[i].kind, reseeded[i].kind);
        differs_seed |= a[i].key != reseeded[i].key;
    }
    EXPECT_TRUE(differs);
    EXPECT_TRUE(differs_seed);
}

TEST(ClientScript, FixedMixWarmRunsResubmitEarlierColdKeys)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto s = makeClientScript(seed, 1, kTestMix);
        ASSERT_FALSE(s.empty());
        EXPECT_EQ(s.front().kind, JobKind::ColdRun);
        int cold = 0, warm = 0;
        int next_key[kJobKinds] = {0, 0, 0, 0, 0};
        for (const ScriptedJob &j : s) {
            if (j.kind == JobKind::WarmRun) {
                ++warm;
                EXPECT_GE(j.key, 0);
                EXPECT_LT(j.key, cold); // a key this client already sent
                continue;
            }
            // Other kinds number their keys 0, 1, ... in order.
            EXPECT_EQ(j.key, next_key[static_cast<int>(j.kind)]++);
            if (j.kind == JobKind::ColdRun)
                ++cold;
        }
        // The seed moves order and keys, never the amount of work.
        EXPECT_EQ(cold, 40);
        EXPECT_EQ(warm, 32);
        EXPECT_EQ(next_key[static_cast<int>(JobKind::Tune)], 6);
        EXPECT_EQ(next_key[static_cast<int>(JobKind::RunModel)], 14);
        EXPECT_EQ(next_key[static_cast<int>(JobKind::Timeout)], 8);
    }
}

TEST(ClientScript, RejectsImpossibleMixes)
{
    EXPECT_THROW(makeClientScript(1, 0, JobMix{}), std::invalid_argument);
    EXPECT_THROW(makeClientScript(1, 0, JobMix{{1, 0, -1, 0, 0}}),
                 std::invalid_argument);
    // A warm run needs a cold key to resubmit.
    EXPECT_THROW(makeClientScript(1, 0, JobMix{{0, 1, 0, 0, 0}}),
                 std::invalid_argument);
    EXPECT_EQ(makeClientScript(1, 0, JobMix{{0, 0, 1, 0, 0}}).size(), 1u);
}

} // namespace
} // namespace perfbench
