/**
 * @file
 * Self-tests of the benchmark harness rules (no server involved):
 * schedule determinism, the ">= 10 samples beyond" tail rule, latency
 * from due, failure-ratio denominators and span self time.
 *
 *   python3 perfbench/run.py --selftest
 */

#include <gtest/gtest.h>

#include "harness.h"

using namespace perfbench;
using enode::InferResponse;
using enode::RequestStatus;

TEST(Schedule, SameSeedSameSchedule)
{
    const auto a = poissonSchedule(500.0, 2.0, 4, 0, 50.0, 7);
    const auto b = poissonSchedule(500.0, 2.0, 4, 0, 50.0, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].dueMs, b[i].dueMs);
        EXPECT_EQ(a[i].stream, b[i].stream);
        EXPECT_EQ(a[i].deadlineMs, b[i].deadlineMs);
        EXPECT_EQ(a[i].inputSeed, b[i].inputSeed);
    }
}

TEST(Schedule, SeedChangesScheduleNotItsShape)
{
    const auto a = poissonSchedule(500.0, 4.0, 3, 1, 50.0, 1);
    const auto b = poissonSchedule(500.0, 4.0, 3, 1, 50.0, 2);
    ASSERT_FALSE(a.empty());
    EXPECT_NE(a.front().dueMs, b.front().dueMs);
    // Poisson count over 4 s at 500/s: 2000 +- a few sigma (~45).
    for (const auto *s : {&a, &b}) {
        EXPECT_NEAR(static_cast<double>(s->size()), 2000.0, 250.0);
        double prev = 0.0;
        for (const Arrival &ev : *s) {
            EXPECT_GE(ev.dueMs, prev);
            EXPECT_LT(ev.dueMs, 4000.0);
            EXPECT_GE(ev.stream, 1u);
            EXPECT_LE(ev.stream, 3u);
            EXPECT_GE(ev.deadlineMs, 37.5);
            EXPECT_LE(ev.deadlineMs, 62.5);
            prev = ev.dueMs;
        }
    }
}

TEST(TailPercentile, P99NeedsTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; i++)
        v.push_back(i);
    const Tail t = tailPercentile(v);
    EXPECT_EQ(t.pct, 99.0);
    EXPECT_EQ(t.value, 990.0); // exactly 10 samples (991..1000) beyond
    EXPECT_EQ(t.n, 1000u);
}

TEST(TailPercentile, FallsBackToLowerPercentile)
{
    std::vector<double> v;
    for (int i = 1; i <= 500; i++)
        v.push_back(i);
    // p99 leaves 5 beyond, p98 leaves exactly 10.
    const Tail t = tailPercentile(v);
    EXPECT_EQ(t.pct, 98.0);
    EXPECT_EQ(t.value, 490.0);

    v.resize(100); // p90 -> rank 90, 10 beyond
    EXPECT_EQ(tailPercentile(v).pct, 90.0);
}

TEST(TailPercentile, TooFewSamplesReportsTheMaximum)
{
    const Tail t = tailPercentile({3.0, 1.0, 2.0});
    EXPECT_EQ(t.pct, 100.0);
    EXPECT_EQ(t.value, 3.0);
    EXPECT_EQ(tailPercentile({}).n, 0u);
}

TEST(Stats, Median)
{
    EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, QuantileInterpolatesBetweenRanks)
{
    const std::vector<double> v = {40.0, 10.0, 30.0, 20.0, 50.0};
    EXPECT_EQ(quantile(v, 0.0), 10.0);
    EXPECT_EQ(quantile(v, 0.25), 20.0);
    EXPECT_EQ(quantile(v, 0.5), median(v));
    EXPECT_EQ(quantile(v, 0.75), 40.0);
    EXPECT_EQ(quantile(v, 1.0), 50.0);
    EXPECT_EQ(quantile({1.0, 2.0}, 0.25), 1.25);
    EXPECT_EQ(quantile({7.0}, 0.25), 7.0);
    EXPECT_EQ(quantile({}, 0.25), 0.0);
}

TEST(LatencyFromDue, LagAddsToServerTime)
{
    const Clock::time_point due{};
    const auto late = due + std::chrono::microseconds(1500);
    const DueTiming t = fromDue(due, late, 2.0);
    EXPECT_DOUBLE_EQ(t.lagMs, 1.5);
    EXPECT_DOUBLE_EQ(t.latencyMs, 3.5);
    // Submitting early (never happens with sleep_until) reads negative.
    EXPECT_DOUBLE_EQ(fromDue(late, due, 2.0).lagMs, -1.5);
}

TEST(Tally, DenominatorIsEveryAttempt)
{
    Tally t;
    InferResponse ok;
    ok.status = RequestStatus::Ok;
    InferResponse late = ok;
    late.deadlineMet = false;
    InferResponse shed;
    shed.status = RequestStatus::Shed;
    InferResponse expired;
    expired.status = RequestStatus::DeadlineExceeded;
    InferResponse failed;
    failed.status = RequestStatus::Failed;

    for (int i = 0; i < 6; i++)
        t.add(&ok);
    t.add(&late);
    t.add(&shed);
    t.add(&expired);
    t.add(&failed);
    t.add(nullptr); // refused by the full queue: attempted, not admitted
    t.wrong = 1;    // one Ok response failed its output check

    EXPECT_EQ(t.attempted, 11u);
    EXPECT_EQ(t.ok, 7u);
    EXPECT_EQ(t.good, 6u); // late responses are not goodput
    EXPECT_EQ(t.failures(), 5u);
    EXPECT_DOUBLE_EQ(t.failedRatio(), 5.0 / 11.0);
    EXPECT_EQ(Tally{}.failedRatio(), 0.0);

    Tally sum = t;
    sum += t;
    EXPECT_EQ(sum.attempted, 22u);
    EXPECT_DOUBLE_EQ(sum.failedRatio(), t.failedRatio());
}

namespace {

enode::TraceEvent
span(const char *name, std::uint32_t tid, std::int64_t start,
     std::int64_t dur)
{
    enode::TraceEvent ev;
    ev.name = name;
    ev.category = "test";
    ev.tid = tid;
    ev.startNs = start;
    ev.durNs = dur;
    return ev;
}

} // namespace

TEST(SpanLedger, SelfTimeSubtractsDirectChildren)
{
    const std::vector<enode::TraceEvent> events = {
        span("outer", 0, 0, 1000000),        // 1 ms
        span("mid", 0, 100000, 500000),      // inside outer
        span("leaf", 0, 200000, 100000),     // inside mid
        span("leaf", 0, 700000, 100000),     // inside outer only
        span("outer", 1, 0, 400000),         // another thread
        span("request.queue_wait", 0, -50000, 900000), // retroactive
    };
    const auto ledger = spanLedger(events);
    EXPECT_EQ(ledger.at("outer").count, 2u);
    EXPECT_NEAR(ledger.at("outer").totalMs, 1.4, 1e-9);
    EXPECT_NEAR(ledger.at("outer").selfMs, 1.4 - 0.5 - 0.1, 1e-9);
    EXPECT_NEAR(ledger.at("mid").selfMs, 0.4, 1e-9);
    EXPECT_NEAR(ledger.at("leaf").selfMs, 0.2, 1e-9);
    EXPECT_NEAR(ledger.at("request.queue_wait").selfMs, 0.9, 1e-9);
    EXPECT_EQ(ledger.at("leaf").durUs.size(), 2u);
}

TEST(ResultJson, ExactKeysAndFullPrecision)
{
    const std::string json =
        resultJson(true, 10, 1, {{"latency_ms", 1.0 / 3.0, "ms", "note"}});
    EXPECT_EQ(json, "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
                    "\"metrics\": {\"latency_ms\": {\"value\": "
                    "0.33333333333333331, \"unit\": \"ms\"}}}");
}
