/**
 * @file
 * Dynamic micro-batching: the batched adaptive solver's per-sample
 * bitwise equivalence with the solo path, per-sample early exit,
 * collect-window deadline hygiene, per-sample degradation under seeded
 * faults, and metrics reconciliation. Built and run under
 * ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/rng.h"
#include "ode/batched_ivp.h"
#include "ode/ivp.h"
#include "ode/step_control.h"
#include "runtime/inference_server.h"
#include "runtime/training_service.h"

namespace enode {
namespace {

constexpr std::uint64_t kSeed = 515151;
constexpr std::size_t kDim = 6;

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       a.numel() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------
// Solver-level: batched vs solo on analytic decay dynamics
// ---------------------------------------------------------------------

/**
 * dh/dt = -h^3: the same f for every sample (the batched contract —
 * like the embedded net, f is applied row-wise and must not depend on
 * batch position), with effective stiffness 3*h^2 dialed entirely by
 * the initial amplitude. Large-amplitude samples need far smaller
 * steps, so per-sample error control is observable.
 */
class CubicDecayOde : public OdeFunction
{
  public:
    Tensor
    eval(double t, const Tensor &h) override
    {
        (void)t;
        countEval();
        Tensor d;
        d.resize(h.shape());
        const float *hd = h.data();
        float *dd = d.data();
        for (std::size_t i = 0; i < h.numel(); i++)
            dd[i] = -hd[i] * hd[i] * hd[i];
        return d;
    }
};

/** The batched twin: identical per-element arithmetic, row-wise. */
class BatchedCubicDecayOde : public BatchedOdeFunction
{
  public:
    void
    evalInto(const std::vector<double> &ts, const Tensor &hs,
             Tensor &out) override
    {
        ASSERT_EQ(hs.shape().dim(0), ts.size());
        out.resize(hs.shape());
        const float *hd = hs.data();
        float *od = out.data();
        for (std::size_t i = 0; i < hs.numel(); i++)
            od[i] = -hd[i] * hd[i] * hd[i];
    }
};

Tensor
decayInput(std::uint64_t salt, float scale)
{
    Rng rng(kSeed + salt);
    return Tensor::randn(Shape{kDim}, rng, scale);
}

IvpOptions
solverOptions()
{
    IvpOptions opts;
    opts.tolerance = 1e-5;
    opts.initialDt = 0.1;
    opts.recordCheckpoints = false;
    return opts;
}

TEST(BatchedIvp, EverySampleBitwiseMatchesSolo)
{
    // Three samples of different stiffness (via initial amplitude)
    // solved in one batch must reproduce three independent solo solves
    // bit for bit, stats included — the batched driver shares f
    // evaluations, never a sample's arithmetic.
    const std::vector<float> scales = {0.5f, 2.0f, 6.0f};
    const ButcherTableau tableau = ButcherTableau::rk23();
    const IvpOptions opts = solverOptions();

    std::vector<Tensor> inputs;
    std::vector<IvpResult> solo;
    for (std::size_t i = 0; i < scales.size(); i++) {
        inputs.push_back(decayInput(i, scales[i]));
        CubicDecayOde ode;
        FixedFactorController controller;
        solo.push_back(solveIvp(ode, inputs.back(), 0.0, 1.0, tableau,
                                controller, opts));
    }

    BatchedCubicDecayOde batched_ode;
    std::vector<const Tensor *> y0;
    std::vector<FixedFactorController> controller_storage(scales.size());
    std::vector<StepController *> controllers;
    for (std::size_t i = 0; i < scales.size(); i++) {
        y0.push_back(&inputs[i]);
        controllers.push_back(&controller_storage[i]);
    }
    const BatchedIvpResult batched = solveIvpBatched(
        batched_ode, y0, 0.0, 1.0, tableau, controllers, opts);

    for (std::size_t i = 0; i < scales.size(); i++) {
        EXPECT_EQ(batched.status[i], SolveStatus::Ok);
        EXPECT_TRUE(bitwiseEqual(batched.yFinal[i], solo[i].yFinal))
            << "sample " << i << " diverged from its solo solve";
        EXPECT_EQ(batched.stats[i].evalPoints, solo[i].stats.evalPoints);
        EXPECT_EQ(batched.stats[i].trials, solo[i].stats.trials);
        EXPECT_EQ(batched.stats[i].rejected, solo[i].stats.rejected);
        EXPECT_EQ(batched.stats[i].fEvals, solo[i].stats.fEvals);
    }
}

TEST(BatchedIvp, StiffSampleDoesNotInflateBatchmates)
{
    // One very stiff sample next to an easy one: the easy sample's
    // accepted steps, trials and f evaluations must be exactly its solo
    // numbers — a finished or struggling batchmate never holds it
    // hostage (per-sample early exit / masking).
    const ButcherTableau tableau = ButcherTableau::rk23();
    const IvpOptions opts = solverOptions();

    Tensor easy_input = decayInput(10, 0.5f);
    Tensor stiff_input = decayInput(11, 25.0f);

    CubicDecayOde easy_ode;
    FixedFactorController easy_controller;
    const IvpResult easy_solo = solveIvp(easy_ode, easy_input, 0.0, 1.0,
                                         tableau, easy_controller, opts);

    BatchedCubicDecayOde batched_ode;
    std::vector<const Tensor *> y0 = {&easy_input, &stiff_input};
    std::vector<FixedFactorController> controller_storage(2);
    std::vector<StepController *> controllers = {&controller_storage[0],
                                                 &controller_storage[1]};
    const BatchedIvpResult batched = solveIvpBatched(
        batched_ode, y0, 0.0, 1.0, tableau, controllers, opts);

    EXPECT_EQ(batched.status[0], SolveStatus::Ok);
    EXPECT_EQ(batched.status[1], SolveStatus::Ok);
    EXPECT_TRUE(bitwiseEqual(batched.yFinal[0], easy_solo.yFinal));
    EXPECT_EQ(batched.stats[0].evalPoints, easy_solo.stats.evalPoints);
    EXPECT_EQ(batched.stats[0].trials, easy_solo.stats.trials);
    EXPECT_EQ(batched.stats[0].fEvals, easy_solo.stats.fEvals);
    // The stiff sample genuinely worked harder.
    EXPECT_GT(batched.stats[1].evalPoints + batched.stats[1].rejected,
              batched.stats[0].evalPoints + batched.stats[0].rejected);
}

TEST(BatchedIvp, BatchOfOneBitwiseMatchesSolo)
{
    const ButcherTableau tableau = ButcherTableau::rk23();
    const IvpOptions opts = solverOptions();
    Tensor input = decayInput(20, 1.5f);

    CubicDecayOde ode;
    FixedFactorController solo_controller;
    const IvpResult solo =
        solveIvp(ode, input, 0.0, 1.0, tableau, solo_controller, opts);

    BatchedCubicDecayOde batched_ode;
    FixedFactorController batched_controller;
    std::vector<const Tensor *> y0 = {&input};
    std::vector<StepController *> controllers = {&batched_controller};
    const BatchedIvpResult batched =
        solveIvpBatched(batched_ode, y0, 0.0, 1.0, tableau, controllers,
                        opts);

    EXPECT_EQ(batched.status[0], SolveStatus::Ok);
    EXPECT_TRUE(bitwiseEqual(batched.yFinal[0], solo.yFinal));
    EXPECT_EQ(batched.stats[0].evalPoints, solo.stats.evalPoints);
    EXPECT_EQ(batched.stats[0].fEvals, solo.stats.fEvals);
}

// ---------------------------------------------------------------------
// Queue: bounded-wait pop
// ---------------------------------------------------------------------

TEST(RequestQueue, PopUntilTimesOutThenDelivers)
{
    RequestQueue queue(4, SelectPolicy::Fifo);
    QueueEntry out;
    const auto short_wait =
        RuntimeClock::now() + std::chrono::milliseconds(5);
    EXPECT_EQ(queue.popUntil(out, short_wait), PopStatus::TimedOut);

    QueueEntry entry;
    entry.request.id = 7;
    EXPECT_TRUE(queue.tryPush(entry));
    EXPECT_EQ(queue.popUntil(out, RuntimeClock::now()), PopStatus::Ok);
    EXPECT_EQ(out.request.id, 7u);

    queue.close(/*drain=*/true);
    EXPECT_EQ(queue.popUntil(out, RuntimeClock::now() +
                                      std::chrono::milliseconds(5)),
              PopStatus::Closed);
}

// ---------------------------------------------------------------------
// Server-level batching
// ---------------------------------------------------------------------

std::unique_ptr<NodeModel>
makeReferenceModel()
{
    Rng rng(kSeed);
    return NodeModel::makeMlp(/*num_layers=*/2, kDim, /*hidden=*/24,
                              /*f_depth=*/1, rng);
}

IvpOptions
servingOptions()
{
    IvpOptions opts;
    opts.tolerance = 1e-4;
    opts.initialDt = 0.05;
    opts.recordCheckpoints = false;
    return opts;
}

Tensor
makeInput(std::uint64_t salt)
{
    Rng rng(kSeed + 1000 + salt);
    return Tensor::randn(Shape{kDim}, rng, 0.5f);
}

Tensor
referenceForward(const Tensor &input)
{
    auto model = makeReferenceModel();
    FixedFactorController controller;
    return model
        ->forward(input, ButcherTableau::rk23(), controller,
                  servingOptions())
        .output;
}

ServerOptions
batchedOptions(std::size_t workers, std::size_t max_batch,
               bool paused = false)
{
    ServerOptions opts;
    opts.numWorkers = workers;
    opts.queueCapacity = 64;
    opts.ivp = servingOptions();
    opts.startPaused = paused;
    opts.maxBatch = max_batch;
    opts.batchWaitUs = 2000.0;
    return opts;
}

TEST(Batching, FullBatchResultsBitwiseMatchSoloPath)
{
    // A paused single worker with maxBatch 4 and 8 queued requests:
    // two full batches, every response bitwise identical to the
    // pre-batching solo path.
    const std::size_t n = 8;
    std::vector<Tensor> inputs, expected;
    for (std::size_t i = 0; i < n; i++) {
        inputs.push_back(makeInput(i));
        expected.push_back(referenceForward(inputs.back()));
    }

    InferenceServer server(makeReferenceModel,
                           batchedOptions(1, 4, /*paused=*/true));
    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < n; i++) {
        auto sub = server.submit(inputs[i]);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.resume();
    for (std::size_t i = 0; i < n; i++) {
        InferResponse r = futures[i].get();
        EXPECT_EQ(r.status, RequestStatus::Ok);
        EXPECT_TRUE(bitwiseEqual(r.output, expected[i]))
            << "request " << i << " diverged from the solo path";
        EXPECT_GE(r.batchSize, 1u);
        EXPECT_LE(r.batchSize, 4u);
    }
    server.stop();

    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.completed, n);
    EXPECT_EQ(s.batchedRequests, n);
    EXPECT_GE(s.batchesDispatched, 2u); // 8 requests, cap 4
    EXPECT_GT(s.batchOccupancyMean, 1.0);
    // Exact reconciliation: the size histogram re-sums to the carried
    // requests and the dispatched batches.
    std::uint64_t batches = 0, requests = 0;
    for (std::size_t i = 0; i < s.batchSizeCounts.size(); i++) {
        batches += s.batchSizeCounts[i];
        requests += s.batchSizeCounts[i] * (i + 1);
    }
    EXPECT_EQ(batches, s.batchesDispatched);
    EXPECT_EQ(requests, s.batchedRequests);
    EXPECT_EQ(s.batchedRequests, s.completed + s.failed);
}

TEST(Batching, BatchOfOneServerPathBitwiseMatchesSoloServer)
{
    // Requests arriving one at a time: every solve is a batch of one
    // and must still match the solo NodeModel::forward bit for bit —
    // with batching enabled, and at maxBatch 1, where every dispatch
    // takes the same batcher and batched-solve path.
    for (const std::size_t max_batch : {std::size_t{4}, std::size_t{1}}) {
        SCOPED_TRACE("maxBatch " + std::to_string(max_batch));
        InferenceServer server(makeReferenceModel,
                               batchedOptions(1, max_batch));
        for (std::size_t i = 0; i < 3; i++) {
            const Tensor input = makeInput(100 + i);
            auto sub = server.submit(input);
            ASSERT_TRUE(sub.accepted);
            InferResponse r = sub.result.get(); // next batch seeds fresh
            EXPECT_EQ(r.status, RequestStatus::Ok);
            EXPECT_EQ(r.batchSize, 1u);
            EXPECT_TRUE(bitwiseEqual(r.output, referenceForward(input)));
        }
        server.stop();
        const MetricsSummary s = server.metrics().summary();
        EXPECT_EQ(s.batchesDispatched, 3u);
        EXPECT_EQ(s.batchedRequests, 3u);
        ASSERT_GE(s.batchSizeCounts.size(), 1u);
        EXPECT_EQ(s.batchSizeCounts[0], 3u);
    }
}

TEST(Batcher, IncompatibleShapeClosesBatchAndSeedsNext)
{
    // Mixed request shapes must never stack into one solve. The
    // incompatible arrival closes the open batch and seeds the next
    // one — it is neither dropped nor reordered behind later arrivals
    // of its own class.
    RequestQueue queue(16, SelectPolicy::Fifo);
    Batcher batcher(queue, /*maxBatch=*/4, /*maxWaitUs=*/2000.0);
    auto push = [&](std::uint64_t id, const Shape &shape) {
        QueueEntry entry;
        entry.request.id = id;
        entry.request.input = Tensor(shape);
        entry.enqueueTime = RuntimeClock::now();
        ASSERT_TRUE(queue.tryPush(entry));
    };
    push(0, Shape{kDim});
    push(1, Shape{kDim});
    push(2, Shape{kDim});
    push(3, Shape{kDim, 2}); // incompatible: closes the first batch
    push(4, Shape{kDim});    // incompatible with 3: a third batch

    CollectedBatch batch;
    ASSERT_TRUE(batcher.collect(batch));
    ASSERT_EQ(batch.entries.size(), 3u);
    for (std::uint64_t i = 0; i < 3; i++)
        EXPECT_EQ(batch.entries[i].request.id, i);
    EXPECT_TRUE(batch.expired.empty());

    ASSERT_TRUE(batcher.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u); // the stashed rank-2 request
    EXPECT_EQ(batch.entries[0].request.id, 3u);

    ASSERT_TRUE(batcher.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].request.id, 4u);
}

TEST(Batcher, ModelVersionBoundaryNeverCoalesces)
{
    // The 10.3 regression: requests admitted on either side of a
    // weight publication carry different model versions, and batching
    // them into one solve would serve half the batch with the wrong
    // weights. A version change must close the open batch exactly like
    // a shape change — no reordering, no loss.
    RequestQueue queue(16, SelectPolicy::Fifo);
    Batcher batcher(queue, /*maxBatch=*/4, /*maxWaitUs=*/2000.0);
    auto push = [&](std::uint64_t id, std::uint64_t version) {
        QueueEntry entry;
        entry.request.id = id;
        entry.request.modelVersion = version;
        entry.request.input = Tensor(Shape{kDim});
        entry.enqueueTime = RuntimeClock::now();
        ASSERT_TRUE(queue.tryPush(entry));
    };
    push(0, 0); // pre-swap admissions
    push(1, 0);
    push(2, 1); // the publication lands here
    push(3, 1);

    CollectedBatch batch;
    ASSERT_TRUE(batcher.collect(batch));
    ASSERT_EQ(batch.entries.size(), 2u) << "batch crossed a swap boundary";
    EXPECT_EQ(batch.entries[0].request.id, 0u);
    EXPECT_EQ(batch.entries[1].request.id, 1u);
    for (auto &entry : batch.entries)
        EXPECT_EQ(entry.request.modelVersion, 0u);

    ASSERT_TRUE(batcher.collect(batch));
    ASSERT_EQ(batch.entries.size(), 2u);
    EXPECT_EQ(batch.entries[0].request.id, 2u);
    EXPECT_EQ(batch.entries[1].request.id, 3u);
    for (auto &entry : batch.entries)
        EXPECT_EQ(entry.request.modelVersion, 1u);
}

TEST(Batcher, TrainTasksShipSoloWithoutCollectWindow)
{
    // Gradient tasks never coalesce — with each other (each task
    // carries its own gradient-slot pointer) or with inference (they
    // run a different solve entirely) — and must not hold a collect
    // window open: training is throughput work with no deadline to
    // amortize.
    RequestQueue queue(16, SelectPolicy::Fifo);
    // A long window that would be felt if the train path waited it out.
    Batcher batcher(queue, /*maxBatch=*/4, /*maxWaitUs=*/500000.0);

    TrainTask task_a, task_b;
    auto pushTrain = [&](std::uint64_t id, TrainTask *task) {
        QueueEntry entry;
        entry.request.id = id;
        entry.request.train = task;
        entry.request.input = Tensor(Shape{kDim});
        entry.enqueueTime = RuntimeClock::now();
        ASSERT_TRUE(queue.tryPush(entry));
    };
    auto pushInfer = [&](std::uint64_t id) {
        QueueEntry entry;
        entry.request.id = id;
        entry.request.input = Tensor(Shape{kDim});
        entry.enqueueTime = RuntimeClock::now();
        ASSERT_TRUE(queue.tryPush(entry));
    };
    pushTrain(0, &task_a);
    pushTrain(1, &task_b);
    pushInfer(2);
    pushInfer(3);
    pushInfer(4);
    pushInfer(5);

    const auto before = RuntimeClock::now();
    CollectedBatch batch;
    ASSERT_TRUE(batcher.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u) << "train tasks coalesced";
    EXPECT_EQ(batch.entries[0].request.id, 0u);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(RuntimeClock::now() -
                                                  before)
            .count();
    EXPECT_LT(elapsed_ms, 100.0)
        << "train seed waited out the collect window";

    ASSERT_TRUE(batcher.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].request.id, 1u);

    // The inference run behind them still coalesces normally (a full
    // batch, so the window closes immediately).
    ASSERT_TRUE(batcher.collect(batch));
    ASSERT_EQ(batch.entries.size(), 4u);
    for (std::uint64_t i = 0; i < 4; i++)
        EXPECT_EQ(batch.entries[i].request.id, i + 2);
}

TEST(Batcher, ConcurrentCollectorsWithMixedShapesLoseNothing)
{
    // Several collectors share one batcher while mixed-shape requests
    // stream in: overlapping collect windows may stash incompatible
    // arrivals at the same time (the FIFO case a single-slot stash
    // asserted on), so every request must still come back exactly
    // once, no batch may mix shapes, and shutdown must not strand a
    // stashed entry. Runs under TSan in CI.
    constexpr std::size_t kCollectors = 4;
    constexpr std::uint64_t kRequests = 400;
    const Shape shapes[3] = {Shape{kDim}, Shape{kDim, 2},
                             Shape{kDim, 3}};

    RequestQueue queue(kRequests, SelectPolicy::Fifo);
    Batcher batcher(queue, /*maxBatch=*/4, /*maxWaitUs=*/300.0);

    std::vector<std::vector<std::uint64_t>> collected(kCollectors);
    std::vector<std::size_t> mixed_batches(kCollectors, 0);
    std::vector<std::thread> collectors;
    for (std::size_t c = 0; c < kCollectors; c++) {
        collectors.emplace_back([&, c] {
            CollectedBatch batch;
            while (batcher.collect(batch)) {
                for (auto &entry : batch.entries) {
                    collected[c].push_back(entry.request.id);
                    if (!(entry.request.input.shape() ==
                          batch.entries.front().request.input.shape()))
                        mixed_batches[c]++;
                }
                for (auto &entry : batch.expired)
                    collected[c].push_back(entry.request.id);
            }
        });
    }

    for (std::uint64_t id = 0; id < kRequests; id++) {
        QueueEntry entry;
        entry.request.id = id;
        // A deterministic but non-periodic-in-4 shape pattern, so most
        // collect windows see an incompatible arrival while several
        // windows are open at once.
        entry.request.input = Tensor(shapes[(id * 7 + id / 5) % 3]);
        entry.enqueueTime = RuntimeClock::now();
        ASSERT_TRUE(queue.tryPush(entry));
        if (id % 16 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    queue.close(/*drain=*/true);
    for (auto &t : collectors)
        t.join();

    std::vector<std::uint64_t> all;
    for (auto &ids : collected)
        all.insert(all.end(), ids.begin(), ids.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), kRequests)
        << "requests lost or duplicated across collectors";
    for (std::uint64_t id = 0; id < kRequests; id++)
        EXPECT_EQ(all[id], id);
    for (std::size_t c = 0; c < kCollectors; c++)
        EXPECT_EQ(mixed_batches[c], 0u)
            << "collector " << c << " got a shape-mixed batch";
}

TEST(Batcher, OverlappingWindowsStashConcurrently)
{
    // The sharpest stash race: two collectors each hold an open window
    // on an empty queue, then two arrivals incompatible with both
    // seeds (and each other) land back to back. The first collector
    // stashes and goes off to "solve" its batch (the sleep below — in
    // the real server a stashed entry waits out a whole batched
    // solve), so the second collector's stash lands while the first is
    // still occupied — the exact schedule a single-slot stash asserted
    // (and crashed the server) on. Repeated many rounds; the stashed
    // pair seeds the next round's windows.
    constexpr std::size_t kRounds = 100;
    const Shape shapes[4] = {Shape{kDim}, Shape{kDim, 2}, Shape{kDim, 3},
                             Shape{kDim, 4}};

    RequestQueue queue(64, SelectPolicy::Fifo);
    Batcher batcher(queue, /*maxBatch=*/2, /*maxWaitUs=*/100000.0);

    std::vector<std::vector<std::uint64_t>> collected(2);
    std::vector<std::thread> collectors;
    for (std::size_t c = 0; c < 2; c++) {
        collectors.emplace_back([&, c] {
            CollectedBatch batch;
            while (batcher.collect(batch)) {
                for (auto &entry : batch.entries)
                    collected[c].push_back(entry.request.id);
                for (auto &entry : batch.expired)
                    collected[c].push_back(entry.request.id);
                // Stand-in for the batched solve: keep this worker's
                // stashed entry (if any) waiting so the other window's
                // stash must coexist with it.
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
        });
    }

    std::uint64_t id = 0;
    auto push = [&](const Shape &shape) {
        QueueEntry entry;
        entry.request.id = id++;
        entry.request.input = Tensor(shape);
        entry.enqueueTime = RuntimeClock::now();
        ASSERT_TRUE(queue.tryPush(entry));
    };
    // Round r pushes shapes {2r % 4, (2r+1) % 4}: mutually
    // incompatible, and incompatible with round r-1's pair (the
    // currently open seeds).
    push(shapes[0]);
    push(shapes[1]);
    for (std::size_t round = 1; round < kRounds; round++) {
        // Both seeds popped == both windows open (or just about to
        // be); the next two pushes close them concurrently.
        while (queue.size() != 0)
            std::this_thread::yield();
        push(shapes[(2 * round) % 4]);
        push(shapes[(2 * round + 1) % 4]);
    }
    queue.close(/*drain=*/true);
    for (auto &t : collectors)
        t.join();

    std::vector<std::uint64_t> all;
    for (auto &ids : collected)
        all.insert(all.end(), ids.begin(), ids.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), id) << "requests lost or duplicated";
    for (std::uint64_t i = 0; i < id; i++)
        EXPECT_EQ(all[i], i);
}

TEST(Batching, ExpiredInCollectWindowIsNeverSolved)
{
    // A single request whose deadline lapses inside the collect window
    // (the batch waits for company that never comes): it must come
    // back DeadlineExceeded, be counted expired, and reconcile.
    ServerOptions opts = batchedOptions(1, 8);
    opts.batchWaitUs = 50000.0; // 50 ms window
    InferenceServer server(makeReferenceModel, opts);

    auto sub = server.submit(makeInput(0), 0,
                             RuntimeClock::now() +
                                 std::chrono::milliseconds(5));
    ASSERT_TRUE(sub.accepted);
    InferResponse r = sub.result.get();
    EXPECT_EQ(r.status, RequestStatus::DeadlineExceeded);
    EXPECT_FALSE(r.deadlineMet);
    EXPECT_TRUE(r.output.empty());
    server.stop();

    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.batchedRequests, 0u); // expired entries are not solved
    EXPECT_EQ(s.completed + s.expired + s.failed + s.cancelled,
              s.admitted);
}

TEST(Batching, CorruptedSampleDegradesAloneUnderSeededFault)
{
    // Batch of 4; one NaN injection lands on sample 2's first stage
    // evaluation. With the per-point trial cap at 1 the poisoned trial
    // is force-accepted, the sample goes NonFinite and walks the
    // ladder alone (relaxed retry, clean this time); its batchmates
    // ship clean, undegraded responses.
    setLogLevel(LogLevel::Silent);
    FaultPlan plan;
    plan.seed = 21;
    FaultSpec spec;
    spec.site = "node.feval";
    spec.kind = FaultKind::CorruptNaN;
    spec.firstHit = 2; // third per-sample corruption probe = sample 2
    spec.count = 1;
    plan.faults.push_back(spec);
    ScopedFaultPlan scoped(plan);

    ServerOptions opts = batchedOptions(1, 4, /*paused=*/true);
    opts.ivp.tolerance = 1.0;        // easy accepts for clean samples
    opts.ivp.maxTrialsPerPoint = 1;  // poisoned trial force-accepts
    InferenceServer server(makeReferenceModel, opts);

    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 4; i++) {
        auto sub = server.submit(makeInput(i));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.resume();

    std::size_t degraded = 0;
    for (std::size_t i = 0; i < 4; i++) {
        InferResponse r = futures[i].get();
        EXPECT_EQ(r.status, RequestStatus::Ok) << "request " << i;
        EXPECT_TRUE(r.output.isFinite());
        EXPECT_EQ(r.batchSize, 4u);
        if (r.degraded) {
            degraded++;
            EXPECT_EQ(r.solveStatus, SolveStatus::NonFinite);
            EXPECT_EQ(r.retries, 1u);
        }
    }
    server.stop();
    setLogLevel(LogLevel::Info);

    EXPECT_EQ(degraded, 1u) << "exactly one sample must degrade";
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.completed, 4u);
    EXPECT_EQ(s.degraded, 1u);
    EXPECT_EQ(s.solveNonFinite, 1u);
    EXPECT_EQ(s.partialFailures, 0u); // every sample still ended Ok
}

TEST(Batching, PartialFailureCountedWhenLadderDisabled)
{
    // Same seeded corruption, but with the degradation ladder off the
    // poisoned sample fails terminally while its batchmates complete:
    // that is the definition of a partial batch failure.
    setLogLevel(LogLevel::Silent);
    FaultPlan plan;
    plan.seed = 22;
    FaultSpec spec;
    spec.site = "node.feval";
    spec.kind = FaultKind::CorruptNaN;
    spec.firstHit = 1; // second per-sample probe = sample 1
    spec.count = 1;
    plan.faults.push_back(spec);
    ScopedFaultPlan scoped(plan);

    ServerOptions opts = batchedOptions(1, 4, /*paused=*/true);
    opts.ivp.tolerance = 1.0;
    opts.ivp.maxTrialsPerPoint = 1;
    opts.degrade.enabled = false;
    InferenceServer server(makeReferenceModel, opts);

    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 4; i++) {
        auto sub = server.submit(makeInput(i));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.resume();

    std::size_t ok = 0, failed = 0;
    for (auto &future : futures) {
        InferResponse r = future.get();
        if (r.status == RequestStatus::Ok) {
            ok++;
            EXPECT_TRUE(r.output.isFinite());
        } else {
            failed++;
            EXPECT_EQ(r.status, RequestStatus::Failed);
            EXPECT_EQ(r.solveStatus, SolveStatus::NonFinite);
            EXPECT_TRUE(r.output.empty());
        }
    }
    server.stop();
    setLogLevel(LogLevel::Info);

    EXPECT_EQ(ok, 3u);
    EXPECT_EQ(failed, 1u);
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.partialFailures, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.completed, 3u);
    EXPECT_EQ(s.batchedRequests, s.completed + s.failed);
    EXPECT_EQ(s.completed + s.expired + s.failed + s.cancelled,
              s.admitted);
}

TEST(Batching, WatchdogFailsWedgedBatchedSolve)
{
    setLogLevel(LogLevel::Silent);
    // Wedge the first batched dispatch for 300 ms against a 40 ms hang
    // budget: the watchdog must fail every sample of the batch long
    // before the worker wakes (the batched path publishes its samples
    // to the same in-flight slot the solo path uses), and the worker
    // must serve the next batch normally afterwards.
    FaultPlan plan;
    FaultSpec stall;
    stall.site = "worker.stall";
    stall.kind = FaultKind::Stall;
    stall.firstHit = 0;
    stall.count = 1;
    stall.stallMs = 300.0;
    plan.faults.push_back(stall);
    ScopedFaultPlan scoped(plan);

    ServerOptions opts = batchedOptions(1, 4, /*paused=*/true);
    opts.degrade.watchdogMs = 40.0;
    InferenceServer server(makeReferenceModel, opts);

    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 4; i++) {
        auto sub = server.submit(makeInput(i));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.resume();

    for (auto &future : futures) {
        InferResponse r = future.get();
        EXPECT_EQ(r.status, RequestStatus::Failed);
        EXPECT_EQ(r.solveStatus, SolveStatus::DeadlineExceeded);
        EXPECT_TRUE(r.output.empty());
        EXPECT_GE(r.solveMs, opts.degrade.watchdogMs);
        EXPECT_EQ(r.batchSize, 4u);
        // No client deadline: a watchdog trip must not invent a miss.
        EXPECT_TRUE(r.deadlineMet);
    }

    // The wedged worker recovers: the stall plan is spent, so the next
    // request solves cleanly.
    auto after = server.submit(makeInput(9));
    ASSERT_TRUE(after.accepted);
    EXPECT_EQ(after.result.get().status, RequestStatus::Ok);
    server.stop();
    setLogLevel(LogLevel::Info);

    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.watchdogTrips, 1u); // one trip per wedged dispatch
    EXPECT_EQ(s.failed, 4u);
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.completed + s.expired + s.failed + s.cancelled,
              s.admitted);
}

TEST(Batching, MetricsExposedThroughPrometheusText)
{
    InferenceServer server(makeReferenceModel,
                           batchedOptions(2, 4, /*paused=*/true));
    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 6; i++) {
        auto sub = server.submit(makeInput(i));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.resume();
    for (auto &future : futures)
        EXPECT_EQ(future.get().status, RequestStatus::Ok);
    server.stop();

    const std::string text = server.metricsText();
    EXPECT_NE(text.find("enode_batch_dispatched"), std::string::npos);
    EXPECT_NE(text.find("enode_batch_requests 6"), std::string::npos);
    EXPECT_NE(text.find("enode_batch_partial_failure 0"),
              std::string::npos);
    EXPECT_NE(text.find("enode_batch_occupancy_mean"), std::string::npos);
    EXPECT_NE(text.find("enode_batch_wait_p99_ms"), std::string::npos);
    EXPECT_NE(text.find("enode_batch_size_bin_"), std::string::npos);
}

TEST(Batching, DrainingShutdownCompletesQueuedBatches)
{
    InferenceServer server(makeReferenceModel,
                           batchedOptions(2, 4, /*paused=*/true));
    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 10; i++) {
        auto sub = server.submit(makeInput(i));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.stop(/*drain=*/true); // resume + drain through the batcher
    for (auto &future : futures)
        EXPECT_EQ(future.get().status, RequestStatus::Ok);
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.completed, 10u);
    EXPECT_EQ(s.batchedRequests, 10u);
    EXPECT_EQ(s.completed + s.expired + s.failed + s.cancelled,
              s.admitted);
}

} // namespace
} // namespace enode
