/**
 * @file
 * Deadline-aware admission control and brownout under overload.
 *
 * Unit level: the AdmissionController cost model (per-shape EWMA rows,
 * drain estimate, warm-up gate), the shed hysteresis band, and the
 * brownout ladder's enter/exit/dwell state machine, all driven with
 * synthetic observations — no server, no clocks beyond the controller's
 * own.
 *
 * End-to-end: a server with overload control sheds an already-late
 * request at submit, enters brownout under a staged flood (paused
 * server, queued backlog, resume), and — the property at the heart of
 * the whole subsystem — reconciles every terminal counter exactly under
 * a seeded chaos soak across worker counts and batch settings:
 *
 *     admitted == completed + expired + failed + cancelled + shed
 *
 * Built and run under ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/rng.h"
#include "runtime/admission.h"
#include "runtime/exposition.h"
#include "runtime/inference_server.h"
#include "workloads/load_gen.h"

namespace enode {
namespace {

constexpr std::uint64_t kSeed = 777001;
constexpr std::size_t kDim = 6;

std::unique_ptr<NodeModel>
makeReferenceModel()
{
    Rng rng(kSeed);
    return NodeModel::makeMlp(/*num_layers=*/2, kDim, /*hidden=*/24,
                              /*f_depth=*/1, rng);
}

ServerOptions
serverOptions(std::size_t workers, std::size_t capacity,
              bool paused = false)
{
    ServerOptions opts;
    opts.numWorkers = workers;
    opts.queueCapacity = capacity;
    opts.ivp.tolerance = 1e-4;
    opts.ivp.initialDt = 0.05;
    opts.startPaused = paused;
    return opts;
}

Tensor
makeInput(std::uint64_t salt)
{
    Rng rng(kSeed + 1000 + salt);
    return Tensor::randn(Shape{kDim}, rng, 0.5f);
}

OverloadOptions
fastBrownout()
{
    // Instant-reacting monitor for unit tests: no dwell, full-weight
    // EWMA samples, occupancy floor kept (tests set occupancy
    // explicitly).
    OverloadOptions o;
    o.enabled = true;
    o.minDwellMs = 0.0;
    o.ewmaAlpha = 1.0;
    o.targetDelayMs = 10.0;
    return o;
}

// ---------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------

TEST(AdmissionCostModel, PerShapeRowsAreIndependent)
{
    OverloadOptions o;
    o.enabled = true;
    o.ewmaAlpha = 1.0;
    o.minObservations = 1;
    AdmissionController adm(o, /*numWorkers=*/1);

    const Tensor small(Shape{4});
    const Tensor large(Shape{64, 64});
    const std::uint64_t small_key = shapeKeyOf(small);
    const std::uint64_t large_key = shapeKeyOf(large);
    ASSERT_NE(small_key, large_key);

    adm.observeSolve(small_key, 2.0, 1);
    adm.observeSolve(large_key, 50.0, 1);

    // Empty queue: the estimate is just the shape's own cost row.
    EXPECT_NEAR(adm.estimateMs(small_key, 0), 2.0, 1e-9);
    EXPECT_NEAR(adm.estimateMs(large_key, 0), 50.0, 1e-9);

    // An unknown shape falls back to the mix-wide service cost.
    const std::uint64_t other_key = shapeKeyOf(Tensor(Shape{7}));
    EXPECT_GT(adm.estimateMs(other_key, 0), 0.0);
}

TEST(AdmissionCostModel, QueueDepthScalesTheDrainTerm)
{
    OverloadOptions o;
    o.enabled = true;
    o.ewmaAlpha = 1.0;
    AdmissionController adm(o, /*numWorkers=*/2);

    const std::uint64_t key = shapeKeyOf(Tensor(Shape{kDim}));
    adm.observeSolve(key, 10.0, 1);

    const double empty = adm.estimateMs(key, 0);
    const double deep = adm.estimateMs(key, 10);
    // 10 queued ahead at >= 10 ms / 2 workers each adds >= 50 ms.
    EXPECT_GE(deep - empty, 50.0 - 1e-9);
}

TEST(AdmissionCostModel, ShapeKeyDistinguishesRankAndOrder)
{
    EXPECT_NE(shapeKeyOf(Tensor(Shape{4, 8})),
              shapeKeyOf(Tensor(Shape{8, 4})));
    EXPECT_NE(shapeKeyOf(Tensor(Shape{32})),
              shapeKeyOf(Tensor(Shape{32, 1})));
}

// ---------------------------------------------------------------------
// Shed decision + hysteresis
// ---------------------------------------------------------------------

TEST(AdmissionShed, LapsedBudgetShedsEvenBeforeWarmup)
{
    AdmissionController adm(fastBrownout(), 1);
    // No observations at all: the model is cold, but a request already
    // past its deadline needs no model.
    const auto v = adm.admit(1, 0, -1.0, 0);
    EXPECT_TRUE(v.shed);
    EXPECT_EQ(adm.sheds(), 1u);
}

TEST(AdmissionShed, ColdModelAdmitsEverythingElse)
{
    OverloadOptions o = fastBrownout();
    o.minObservations = 8;
    AdmissionController adm(o, 1);
    // Infeasible-looking depth, but the model has no observations yet:
    // admission must not guess.
    EXPECT_FALSE(adm.admit(1, 0, 1.0, 1000).shed);
}

TEST(AdmissionShed, HysteresisBandBlocksFlapping)
{
    OverloadOptions o = fastBrownout();
    o.minObservations = 1;
    o.hysteresisRatio = 0.5;
    AdmissionController adm(o, 1);

    const std::uint64_t key = shapeKeyOf(Tensor(Shape{kDim}));
    adm.observeSolve(key, 10.0, 1); // own cost 10 ms

    // Estimate 10 ms > 8 ms budget: shed, and the controller latches
    // into its shedding state.
    EXPECT_TRUE(adm.admit(key, 0, 8.0, 0).shed);
    // Same request with a 12 ms budget would pass a naive check
    // (10 <= 12) but not the hysteresis bar (10 > 0.5 * 12).
    EXPECT_TRUE(adm.admit(key, 0, 12.0, 0).shed);
    // A budget comfortably inside the band re-admits (10 <= 0.5 * 25)
    // and unlatches.
    EXPECT_FALSE(adm.admit(key, 0, 25.0, 0).shed);
    // Unlatched: plain comparison again (10 <= 12 admits now).
    EXPECT_FALSE(adm.admit(key, 0, 12.0, 0).shed);
}

// ---------------------------------------------------------------------
// Brownout ladder
// ---------------------------------------------------------------------

TEST(Brownout, ClimbsAndDescendsWithTracedTransitions)
{
    AdmissionController adm(fastBrownout(), 1);
    EXPECT_EQ(adm.level(), 0);
    EXPECT_FALSE(adm.relaxTolerance(0));

    // Queue delay 2x target at full occupancy: score 2.0 -> level 2.
    adm.observeQueueDelay(20.0, 1.0);
    EXPECT_EQ(adm.level(), 2);
    EXPECT_TRUE(adm.relaxTolerance(0));
    EXPECT_FALSE(adm.relaxTolerance(1)); // stream 1 is not low priority

    // Score 4+ -> level 3.
    adm.observeQueueDelay(60.0, 1.0);
    EXPECT_EQ(adm.level(), 3);
    // Level 3 sheds low-priority outright, whatever the estimate.
    EXPECT_TRUE(adm.admit(1, /*stream=*/0, 1e6, 0).shed);
    EXPECT_FALSE(adm.admit(1, /*stream=*/2, 1e6, 0).shed);

    // Recovery descends one level per observation, not in one jump.
    adm.observeQueueDelay(0.0, 1.0);
    EXPECT_EQ(adm.level(), 2);
    adm.observeQueueDelay(0.0, 1.0);
    EXPECT_EQ(adm.level(), 1);
    adm.observeQueueDelay(0.0, 1.0);
    EXPECT_EQ(adm.level(), 0);
    EXPECT_GE(adm.transitions(), 5u);
    EXPECT_GT(adm.levelResidencyMs(0), 0.0);
}

TEST(Brownout, OccupancyFloorGatesTheClimb)
{
    AdmissionController adm(fastBrownout(), 1);
    // Huge queue delay but idle workers: a paused or draining server,
    // not overload. The ladder must not engage.
    adm.observeQueueDelay(500.0, 0.0);
    EXPECT_EQ(adm.level(), 0);
    // Same delay at full occupancy is the real thing.
    adm.observeQueueDelay(500.0, 1.0);
    EXPECT_EQ(adm.level(), 3);
}

TEST(Brownout, DwellSuppressesFlapping)
{
    OverloadOptions o = fastBrownout();
    o.minDwellMs = 60000.0; // effectively: one transition per test
    AdmissionController adm(o, 1);
    adm.observeQueueDelay(100.0, 1.0); // first move is free
    EXPECT_EQ(adm.level(), 3);
    adm.observeQueueDelay(0.0, 1.0); // wants to descend; dwell says no
    EXPECT_EQ(adm.level(), 3);
}

TEST(Brownout, SnapshotExposesPrometheusCounters)
{
    AdmissionController adm(fastBrownout(), 1);
    adm.admit(1, 0, -1.0, 0); // one shed
    const StatGroup snap = adm.snapshot();
    EXPECT_EQ(snap.get("overload.sheds"), 1.0);
    const std::string text = prometheusText(snap);
    EXPECT_NE(text.find("# TYPE enode_overload_sheds counter"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE enode_overload_brownout_level gauge"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end against a real server
// ---------------------------------------------------------------------

TEST(OverloadServer, LateRequestIsShedAtSubmitNotServed)
{
    setLogLevel(LogLevel::Silent);
    ServerOptions opts = serverOptions(1, 8);
    opts.overload.enabled = true;
    InferenceServer server(makeReferenceModel, opts);

    auto sub = server.submit(makeInput(0), 0,
                             RuntimeClock::now() -
                                 std::chrono::milliseconds(5));
    ASSERT_TRUE(sub.accepted);
    InferResponse r = sub.result.get();
    EXPECT_EQ(r.status, RequestStatus::Shed);
    EXPECT_FALSE(r.deadlineMet);
    EXPECT_TRUE(r.output.empty());

    // A healthy request on the same server still serves normally.
    auto ok = server.submit(makeInput(1));
    ASSERT_TRUE(ok.accepted);
    EXPECT_EQ(ok.result.get().status, RequestStatus::Ok);
    server.stop();

    const MetricsSummary m = server.metrics().summary();
    EXPECT_EQ(m.shed, 1u);
    EXPECT_EQ(m.completed, 1u);
    EXPECT_EQ(m.admitted,
              m.completed + m.expired + m.failed + m.cancelled + m.shed);
    ASSERT_NE(server.admission(), nullptr);
    EXPECT_EQ(server.admission()->sheds(), 1u);
    setLogLevel(LogLevel::Info);
}

TEST(OverloadServer, MetricsTextCarriesOverloadFamily)
{
    ServerOptions opts = serverOptions(1, 8);
    opts.overload.enabled = true;
    InferenceServer server(makeReferenceModel, opts);
    auto sub = server.submit(makeInput(0));
    ASSERT_TRUE(sub.accepted);
    sub.result.get();
    const std::string text = server.metricsText();
    EXPECT_NE(text.find("enode_overload_brownout_level"),
              std::string::npos);
    EXPECT_NE(text.find("enode_requests_shed"), std::string::npos);
    server.stop();
}

TEST(OverloadServer, StagedFloodEntersBrownoutAndRecovers)
{
    setLogLevel(LogLevel::Silent);
    ServerOptions opts = serverOptions(1, 256, /*paused=*/true);
    opts.overload.enabled = true;
    // A monitor tuned to trip within one staged backlog: tiny defended
    // delay, no dwell, heavyweight samples.
    opts.overload.targetDelayMs = 0.5;
    opts.overload.minDwellMs = 0.0;
    opts.overload.ewmaAlpha = 0.5;
    InferenceServer server(makeReferenceModel, opts);

    // Stage a backlog while the workers are paused, let it age past the
    // defended delay, then release: every dequeue observes a queue
    // delay far above target at full occupancy.
    std::vector<std::future<InferResponse>> futures;
    for (std::uint64_t i = 0; i < 32; i++) {
        auto sub = server.submit(makeInput(i), /*stream=*/0);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.resume();
    for (auto &f : futures)
        f.get();

    ASSERT_NE(server.admission(), nullptr);
    const AdmissionController &adm = *server.admission();
    EXPECT_GT(adm.transitions(), 0u) << "flood never entered brownout";
    double elevated_ms = 0.0;
    for (int level = 1; level <= 3; level++)
        elevated_ms += adm.levelResidencyMs(level);
    EXPECT_GT(elevated_ms, 0.0);
    // Low-priority solves during the elevated phase ran relaxed.
    EXPECT_GT(adm.relaxedSolves(), 0u);

    // Drain + idle observations walk the ladder back down: serve sparse
    // healthy traffic until the level reads 0 again.
    for (std::uint64_t i = 0; i < 64 && adm.level() > 0; i++) {
        auto sub = server.submit(makeInput(100 + i), /*stream=*/2);
        ASSERT_TRUE(sub.accepted);
        sub.result.get();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(adm.level(), 0) << "brownout never exited after recovery";
    server.stop();

    const MetricsSummary m = server.metrics().summary();
    EXPECT_EQ(m.admitted,
              m.completed + m.expired + m.failed + m.cancelled + m.shed);
    setLogLevel(LogLevel::Info);
}

TEST(OverloadServer, ExpiredBacklogResolvesWithoutFreshTraffic)
{
    // Regression: a collect's seed hunt diverts already-expired
    // entries while searching for a live seed. It must ship those
    // casualties when the queue runs dry — not park in a blocking pop
    // holding their unfulfilled promises until the next arrival or
    // shutdown. Recipe: stage a backlog behind paused workers, let
    // every deadline lapse, release, then submit NOTHING else.
    ServerOptions opts = serverOptions(1, 64, /*paused=*/true);
    opts.maxBatch = 4;
    InferenceServer server(makeReferenceModel, opts);

    std::vector<std::future<InferResponse>> futures;
    for (std::uint64_t i = 0; i < 16; i++) {
        auto sub = server.submit(
            makeInput(i), /*stream=*/0,
            RuntimeClock::now() + std::chrono::milliseconds(5));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.resume();

    for (std::size_t i = 0; i < futures.size(); i++) {
        ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(10)),
                  std::future_status::ready)
            << "expired request " << i
            << " hung in the queue instead of resolving";
        EXPECT_EQ(futures[i].get().status,
                  RequestStatus::DeadlineExceeded);
    }
    server.stop();
    const MetricsSummary m = server.metrics().summary();
    EXPECT_EQ(m.expired, futures.size());
    EXPECT_EQ(m.batchedRequests, 0u); // expired entries are never solved
    EXPECT_EQ(m.admitted,
              m.completed + m.expired + m.failed + m.cancelled + m.shed);
}

// ---------------------------------------------------------------------
// Seeded chaos soak: the counter identity across configurations
// ---------------------------------------------------------------------

TEST(OverloadSoak, CountersReconcileExactlyUnderChaos)
{
    setLogLevel(LogLevel::Silent);
    // Transient NaN bursts through every soak in this test.
    FaultPlan plan;
    plan.seed = kSeed + 9;
    for (std::uint64_t burst = 0; burst < 16; burst++) {
        FaultSpec spec;
        spec.site = "node.feval";
        spec.kind = FaultKind::CorruptNaN;
        spec.firstHit = 50 + burst * 600;
        spec.count = 12;
        plan.faults.push_back(spec);
    }

    for (std::size_t workers : {1u, 2u, 4u}) {
        for (std::size_t max_batch : {1u, 4u}) {
            ScopedFaultPlan scoped(plan);

            ServerOptions opts = serverOptions(workers, 64);
            opts.maxBatch = max_batch;
            opts.overload.enabled = true;
            opts.overload.targetDelayMs = 2.0;
            opts.overload.minDwellMs = 0.0;
            opts.overload.ewmaAlpha = 0.5;
            opts.overload.minObservations = 4;
            InferenceServer server(makeReferenceModel, opts);

            // A short mixed-priority open-loop schedule, fast-forwarded
            // (no sleeps): submission pressure far above what the
            // workers drain, so sheds, expiries and queue rejections
            // all occur alongside chaos failures.
            LoadGenOptions gen;
            gen.process = ArrivalProcess::Bursty;
            gen.ratePerSec = 500.0;
            gen.seed = kSeed + workers * 10 + max_batch;
            gen.numStreams = 3;
            gen.deadlineMeanMs = 8.0;
            gen.stiffFraction = 0.3;
            const auto schedule = LoadGen(gen).schedule(1.0);
            ASSERT_FALSE(schedule.empty());

            std::printf("soak config workers=%zu maxBatch=%zu: %zu arrivals\n",
                        workers, max_batch, schedule.size());
            std::vector<std::future<InferResponse>> futures;
            std::vector<std::uint64_t> ids;
            std::uint64_t rejected = 0;
            for (const ArrivalEvent &ev : schedule) {
                Rng rng(ev.inputSeed);
                Tensor input = Tensor::randn(Shape{kDim}, rng,
                                             ev.stiff ? 1.5f : 0.5f);
                const auto deadline =
                    RuntimeClock::now() +
                    std::chrono::duration_cast<RuntimeClock::duration>(
                        std::chrono::duration<double, std::milli>(
                            ev.deadlineBudgetMs));
                auto sub = server.submit(input, ev.stream, deadline);
                if (sub.accepted) {
                    futures.push_back(std::move(sub.result));
                    ids.push_back(sub.id);
                } else {
                    rejected++;
                }
            }
            for (std::size_t i = 0; i < futures.size(); i++) {
                // Bounded wait: a lost promise fails loudly instead of
                // hanging the suite.
                ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(30)),
                          std::future_status::ready)
                    << "future " << i << " (id " << ids[i] << ") of "
                    << futures.size()
                    << " never resolved (workers=" << workers
                    << " maxBatch=" << max_batch << ")";
                futures[i].get();
            }
            server.stop();

            const MetricsSummary m = server.metrics().summary();
            EXPECT_EQ(m.admitted, futures.size())
                << "workers=" << workers << " maxBatch=" << max_batch;
            EXPECT_EQ(m.rejected, rejected)
                << "workers=" << workers << " maxBatch=" << max_batch;
            EXPECT_EQ(m.admitted, m.completed + m.expired + m.failed +
                                      m.cancelled + m.shed)
                << "workers=" << workers << " maxBatch=" << max_batch
                << " admitted=" << m.admitted << " completed="
                << m.completed << " expired=" << m.expired << " failed="
                << m.failed << " cancelled=" << m.cancelled
                << " shed=" << m.shed;
        }
    }
    setLogLevel(LogLevel::Info);
}

// ---------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------

TEST(LoadGen, SameSeedSameSchedule)
{
    LoadGenOptions gen;
    gen.process = ArrivalProcess::Bursty;
    gen.ratePerSec = 200.0;
    gen.seed = 42;
    const auto a = LoadGen(gen).schedule(2.0);
    const auto b = LoadGen(gen).schedule(2.0);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_DOUBLE_EQ(a[i].atMs, b[i].atMs);
        EXPECT_EQ(a[i].stream, b[i].stream);
        EXPECT_DOUBLE_EQ(a[i].deadlineBudgetMs, b[i].deadlineBudgetMs);
        EXPECT_EQ(a[i].stiff, b[i].stiff);
        EXPECT_EQ(a[i].inputSeed, b[i].inputSeed);
    }
    gen.seed = 43;
    const auto c = LoadGen(gen).schedule(2.0);
    EXPECT_NE(a.size() == c.size() &&
                  (a.empty() || a[0].inputSeed == c[0].inputSeed),
              true)
        << "different seeds produced an identical schedule";
}

TEST(LoadGen, PoissonRateAndMixMatchConfiguration)
{
    LoadGenOptions gen;
    gen.process = ArrivalProcess::Poisson;
    gen.ratePerSec = 400.0;
    gen.seed = 7;
    gen.numStreams = 3;
    gen.deadlineMeanMs = 50.0;
    gen.deadlineJitter = 0.5;
    gen.stiffFraction = 0.25;
    const double seconds = 20.0;
    const auto events = LoadGen(gen).schedule(seconds);

    // Mean count 8000, sd ~90: a 5-sigma band is [7550, 8450].
    EXPECT_GT(events.size(), 7550u);
    EXPECT_LT(events.size(), 8450u);

    std::size_t stiff = 0;
    double prev = 0.0;
    for (const ArrivalEvent &ev : events) {
        EXPECT_GE(ev.atMs, prev) << "arrivals must be time-ordered";
        prev = ev.atMs;
        EXPECT_LT(ev.stream, gen.numStreams);
        EXPECT_GE(ev.deadlineBudgetMs, 25.0 - 1e-9);
        EXPECT_LE(ev.deadlineBudgetMs, 75.0 + 1e-9);
        stiff += ev.stiff ? 1 : 0;
    }
    const double stiff_frac =
        static_cast<double>(stiff) / static_cast<double>(events.size());
    EXPECT_NEAR(stiff_frac, 0.25, 0.05);
}

TEST(LoadGen, BurstyAlternatesHotAndSilentPhases)
{
    LoadGenOptions gen;
    gen.process = ArrivalProcess::Bursty;
    gen.ratePerSec = 200.0; // bursts at 800/s
    gen.seed = 11;
    const auto events = LoadGen(gen).schedule(10.0);
    ASSERT_GT(events.size(), 100u);

    // Open-loop burstiness shows up as a heavy inter-arrival tail:
    // silent phases produce gaps far above the in-burst mean (~1.25ms).
    double max_gap = 0.0;
    for (std::size_t i = 1; i < events.size(); i++)
        max_gap = std::max(max_gap, events[i].atMs - events[i - 1].atMs);
    EXPECT_GT(max_gap, 100.0) << "no silent phase in a bursty schedule";
}

TEST(LoadGen, DiurnalSweepsTheRate)
{
    LoadGenOptions gen;
    gen.process = ArrivalProcess::Diurnal;
    gen.ratePerSec = 300.0;
    gen.diurnalPeriodSec = 10.0;
    gen.seed = 13;
    const auto events = LoadGen(gen).schedule(10.0);
    ASSERT_GT(events.size(), 100u);

    // Rate follows 1 - cos(2 pi t / period): the middle of the cycle
    // (trough at the edges, crest in the center) must carry several
    // times the traffic of the first tenth.
    std::size_t head = 0, crest = 0;
    for (const ArrivalEvent &ev : events) {
        if (ev.atMs < 1000.0)
            head++;
        else if (ev.atMs >= 4000.0 && ev.atMs < 6000.0)
            crest++;
    }
    EXPECT_GT(crest, 2 * head);
}

} // namespace
} // namespace enode
