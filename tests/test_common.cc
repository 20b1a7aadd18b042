/**
 * @file
 * Rng determinism and distribution sanity; stats package; table
 * formatter.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace enode {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; i++)
        same += a.nextU64() == b.nextU64();
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; i++) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    Accumulator acc;
    for (int i = 0; i < 20000; i++)
        acc.add(rng.normal(3.0, 2.0));
    EXPECT_NEAR(acc.mean(), 3.0, 0.1);
    EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, IntRangeInclusiveAndUnbiased)
{
    Rng rng(13);
    int counts[6] = {0};
    for (int i = 0; i < 12000; i++) {
        const int v = rng.intRange(0, 5);
        ASSERT_GE(v, 0);
        ASSERT_LE(v, 5);
        counts[v]++;
    }
    for (int c : counts)
        EXPECT_NEAR(c, 2000, 300);
}

TEST(Rng, PermutationIsAPermutation)
{
    Rng rng(17);
    auto perm = rng.permutation(50);
    std::vector<bool> seen(50, false);
    for (auto v : perm) {
        ASSERT_LT(v, 50u);
        ASSERT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Rng, ForkedStreamsAreIndependent)
{
    Rng a(5);
    Rng b = a.fork();
    // The fork must not replay the parent's stream.
    EXPECT_NE(a.nextU64(), b.nextU64());
}

TEST(Accumulator, TracksMinMaxMeanVariance)
{
    Accumulator acc;
    for (double v : {2.0, 4.0, 6.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 6.0);
    EXPECT_NEAR(acc.variance(), 8.0 / 3.0, 1e-12);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
}

TEST(SampleSeries, ExactPercentiles)
{
    SampleSeries s;
    EXPECT_EQ(s.percentile(50.0), 0.0); // empty
    // Insert 1..100 shuffled; quantiles must not depend on order.
    Rng rng(3);
    auto perm = rng.permutation(100);
    for (std::size_t i : perm)
        s.add(static_cast<double>(i + 1));
    EXPECT_EQ(s.count(), 100u);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 100.0);
    EXPECT_NEAR(s.percentile(50.0), 50.5, 1e-12);
    EXPECT_NEAR(s.percentile(95.0), 95.05, 1e-12);
    EXPECT_NEAR(s.percentile(99.0), 99.01, 1e-12);
    EXPECT_NEAR(s.mean(), 50.5, 1e-12);

    // Adding after a quantile query stays correct (lazy re-sort).
    s.add(1000.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 1000.0);

    SampleSeries single;
    single.add(7.0);
    EXPECT_DOUBLE_EQ(single.percentile(50.0), 7.0);
}

TEST(SampleSeries, BelowCapacityMatchesUnboundedReference)
{
    // Property: while count() <= capacity() the bounded series is the
    // *same distribution object* as an unbounded one — every quantile
    // and every accumulator agrees exactly, for any insertion order.
    const std::size_t cap = 512;
    Rng rng(17);
    for (int round = 0; round < 3; round++) {
        SampleSeries bounded(cap);
        SampleSeries reference; // default cap far above this stream
        double sum = 0.0;
        const std::size_t n = cap; // exactly at the cap: still exact
        for (std::size_t i = 0; i < n; i++) {
            const double x = rng.normal(0.0, 100.0);
            bounded.add(x);
            reference.add(x);
            sum += x;
        }
        ASSERT_EQ(bounded.count(), n);
        ASSERT_EQ(bounded.stored(), n);
        EXPECT_DOUBLE_EQ(bounded.mean(), sum / static_cast<double>(n));
        EXPECT_DOUBLE_EQ(bounded.min(), reference.min());
        EXPECT_DOUBLE_EQ(bounded.max(), reference.max());
        for (double q = 0.0; q <= 100.0; q += 2.5)
            EXPECT_DOUBLE_EQ(bounded.percentile(q), reference.percentile(q))
                << "q=" << q << " round=" << round;
    }
}

TEST(SampleSeries, BoundedMemoryBeyondCapacity)
{
    // The 10.2 regression: the latency series grew one double per
    // request forever. Past the cap, storage must stay put while the
    // running accumulators stay exact.
    const std::size_t cap = 256;
    SampleSeries s(cap);
    const std::size_t n = 20000;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; i++) {
        const double x = static_cast<double>(i);
        s.add(x);
        sum += x;
    }
    EXPECT_EQ(s.stored(), cap);
    EXPECT_EQ(s.capacity(), cap);
    // Exact accumulators, untouched by the reservoir.
    EXPECT_EQ(s.count(), n);
    EXPECT_DOUBLE_EQ(s.mean(), sum / static_cast<double>(n));
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), static_cast<double>(n - 1));
    // Percentiles degrade to estimates but must stay finite, in range,
    // and monotone in q.
    double prev = s.percentile(0.0);
    EXPECT_GE(prev, 0.0);
    for (double q = 5.0; q <= 100.0; q += 5.0) {
        const double cur = s.percentile(q);
        EXPECT_TRUE(std::isfinite(cur));
        EXPECT_LE(cur, static_cast<double>(n - 1));
        EXPECT_GE(cur, prev) << "percentile not monotone at q=" << q;
        prev = cur;
    }
    // A uniform ramp's reservoir median lands near the true median.
    EXPECT_NEAR(s.percentile(50.0), static_cast<double>(n) / 2.0,
                static_cast<double>(n) * 0.15);
}

TEST(SampleSeries, ReservoirIsDeterministic)
{
    // Fixed-seed splitmix64 replacement: two series fed the same
    // stream hold identical reservoirs — reproducible soak reports.
    const std::size_t cap = 64;
    SampleSeries a(cap), b(cap);
    for (std::size_t i = 0; i < 5000; i++) {
        const double x = std::sin(static_cast<double>(i));
        a.add(x);
        b.add(x);
    }
    ASSERT_EQ(a.stored(), b.stored());
    for (double q = 0.0; q <= 100.0; q += 1.0)
        EXPECT_DOUBLE_EQ(a.percentile(q), b.percentile(q)) << "q=" << q;
}

TEST(SampleSeries, ResetRestoresExactMode)
{
    const std::size_t cap = 32;
    SampleSeries s(cap);
    for (int i = 0; i < 1000; i++)
        s.add(static_cast<double>(i));
    ASSERT_EQ(s.stored(), cap);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.stored(), 0u);
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 0.0);
    // Exact again below the cap after the reset.
    for (int i = 1; i <= 9; i++)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(StatGroup, SetAddGetDump)
{
    StatGroup stats("core0");
    stats.set("macs", 10.0);
    stats.add("macs", 5.0);
    stats.add("hits", 1.0);
    EXPECT_DOUBLE_EQ(stats.get("macs"), 15.0);
    EXPECT_TRUE(stats.has("hits"));
    EXPECT_FALSE(stats.has("misses"));
    EXPECT_EQ(stats.keys().size(), 2u);
    EXPECT_NE(stats.dump().find("core0.macs = 15"), std::string::npos);
}

TEST(StatGroup, EachValueKeepsTheKindItWasSetWith)
{
    StatGroup stats("core0");
    stats.set("occupancy", 0.5);
    stats.setCounter("macs", 10.0);
    stats.add("macs", 5.0); // an add keeps the declared kind
    stats.add("hits", 1.0); // and creates a gauge when absent
    EXPECT_EQ(stats.kind("occupancy"), StatKind::Gauge);
    EXPECT_EQ(stats.kind("macs"), StatKind::Counter);
    EXPECT_DOUBLE_EQ(stats.get("macs"), 15.0);
    EXPECT_EQ(stats.kind("hits"), StatKind::Gauge);
    stats.set("macs", 1.0); // the latest declaration wins
    EXPECT_EQ(stats.kind("macs"), StatKind::Gauge);
}

TEST(Table, RendersAlignedCells)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", Table::num(1.5, 2)});
    t.addSeparator();
    t.addRow({"beta", Table::ratio(2.0)});
    const std::string out = t.render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("2.00x"), std::string::npos);
    EXPECT_EQ(Table::percent(0.125), "12.5%");
    EXPECT_EQ(Table::integer(42), "42");
}

TEST(Table, RowWidthMismatchPanics)
{
    Table t("demo");
    t.setHeader({"a", "b"});
    EXPECT_DEATH({ t.addRow({"only-one"}); }, "width");
}

} // namespace
} // namespace enode
