/**
 * @file
 * Concurrent serving runtime: result integrity vs. the single-threaded
 * reference, priority ordering under contention, admission
 * backpressure, multi-producer liveness, and clean shutdown. Built and
 * run under ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/trace_span.h"
#include "ode/step_control.h"
#include "runtime/exposition.h"
#include "runtime/inference_server.h"
#include "runtime/training_service.h"

namespace enode {
namespace {

constexpr std::uint64_t kSeed = 424242;
constexpr std::size_t kDim = 6;

/** Deterministic factory: every call yields bit-identical weights. */
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
    return opts;
}

Tensor
makeInput(std::uint64_t salt)
{
    Rng rng(kSeed + 1000 + salt);
    return Tensor::randn(Shape{kDim}, rng, 0.5f);
}

/** Single-threaded reference output for one input. */
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

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       a.numel() * sizeof(float)) == 0;
}

ServerOptions
serverOptions(std::size_t workers, std::size_t capacity,
              bool paused = false)
{
    ServerOptions opts;
    opts.numWorkers = workers;
    opts.queueCapacity = capacity;
    opts.ivp = servingOptions();
    opts.startPaused = paused;
    return opts;
}

TEST(InferenceServer, ResultsBitwiseMatchSingleThreadedReference)
{
    const std::size_t n = 24;
    std::vector<Tensor> inputs, expected;
    for (std::size_t i = 0; i < n; i++) {
        inputs.push_back(makeInput(i));
        expected.push_back(referenceForward(inputs.back()));
    }

    InferenceServer server(makeReferenceModel, serverOptions(4, 64));
    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < n; i++) {
        auto sub = server.submit(inputs[i]);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    for (std::size_t i = 0; i < n; i++) {
        InferResponse r = futures[i].get();
        EXPECT_EQ(r.status, RequestStatus::Ok);
        EXPECT_TRUE(bitwiseEqual(r.output, expected[i]))
            << "request " << i << " diverged from the reference";
        EXPECT_GT(r.stats.fEvals, 0u);
        EXPECT_GE(r.totalMs, r.solveMs);
    }
    server.stop();
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.completed, n);
    EXPECT_EQ(s.admitted, n);
    EXPECT_EQ(s.rejected, 0u);
}

TEST(InferenceServer, WrongShapesAreRefusedAtSubmitAndServingGoesOn)
{
    // A state the model cannot take is answered InvalidInput at submit
    // and never reaches the worker, whose solve would end the process
    // on it: a rank-1 state one wider than the model's, a rank-2 one,
    // and a rank-4 one a batch of one cannot stack. A training task is
    // screened the same way, on its input and on its target. The worker
    // then serves a valid request, and the refusals join the terminal
    // identity.
    InferenceServer server(makeReferenceModel, serverOptions(1, 8));
    for (const Shape &shape :
         {Shape{kDim + 1}, Shape{4, 4}, Shape{1, 1, 1, kDim}}) {
        auto sub = server.submit(Tensor(shape));
        ASSERT_TRUE(sub.accepted) << shape.str();
        const InferResponse r = sub.result.get();
        EXPECT_EQ(r.status, RequestStatus::InvalidInput) << shape.str();
        EXPECT_TRUE(r.output.empty());
    }

    std::vector<Tensor> grads;
    TrainTask task;
    task.weights = server.registry().latest();
    task.grads = &grads;
    const std::pair<Shape, Shape> train_shapes[] = {
        {Shape{kDim + 1}, Shape{kDim + 1}}, // input the model cannot take
        {Shape{kDim}, Shape{kDim + 1}},     // target of another shape
    };
    for (const auto &[input, target] : train_shapes) {
        task.input = Tensor(input);
        task.target = Tensor(target);
        auto sub = server.submitTrainTask(task);
        ASSERT_TRUE(sub.accepted);
        EXPECT_EQ(sub.result.get().status, RequestStatus::InvalidInput)
            << input.str() << " -> " << target.str();
    }

    const Tensor input = makeInput(0);
    auto sub = server.submit(input);
    ASSERT_TRUE(sub.accepted);
    const InferResponse r = sub.result.get();
    EXPECT_EQ(r.status, RequestStatus::Ok);
    EXPECT_TRUE(bitwiseEqual(r.output, referenceForward(input)));
    server.stop();

    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.invalid, 3u) << "training tasks stay out of the metrics";
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.admitted, s.completed + s.expired + s.failed + s.cancelled +
                              s.shed + s.invalid);
    EXPECT_EQ(server.metrics().snapshot().get("requests.invalid"), 3.0);
}

TEST(InferenceServer, EveryReplicaServesTheFirstBuiltWeights)
{
    // The factory seeds every call differently, so the four replicas
    // come out of it with four different weight sets. Construction
    // makes replica 0's weights version 0 and applies them to the
    // others: whichever worker serves a request, it answers with the
    // first-built model's bytes, stamped version 0.
    constexpr std::size_t n = 32;
    std::uint64_t calls = 0;
    const auto factory = [&calls] {
        Rng rng(kSeed + calls++);
        return NodeModel::makeMlp(/*num_layers=*/2, kDim, /*hidden=*/24,
                                  /*f_depth=*/1, rng);
    };
    std::vector<Tensor> inputs, expected;
    for (std::size_t i = 0; i < n; i++) {
        inputs.push_back(makeInput(100 + i));
        expected.push_back(referenceForward(inputs.back()));
    }

    InferenceServer server(factory, serverOptions(4, 64, /*paused=*/true));
    ASSERT_EQ(calls, 4u);
    // The factory's later builds really differ from the first.
    FixedFactorController controller;
    EXPECT_FALSE(bitwiseEqual(factory()
                                  ->forward(inputs[0], ButcherTableau::rk23(),
                                            controller, servingOptions())
                                  .output,
                              expected[0]));

    std::vector<std::future<InferResponse>> futures;
    for (const Tensor &input : inputs) {
        auto sub = server.submit(input);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.resume();
    for (std::size_t i = 0; i < n; i++) {
        const InferResponse r = futures[i].get();
        ASSERT_EQ(r.status, RequestStatus::Ok) << "request " << i;
        EXPECT_EQ(r.modelVersion, 0u) << "request " << i;
        EXPECT_TRUE(bitwiseEqual(r.output, expected[i]))
            << "request " << i << " on worker " << r.workerId;
    }
    server.stop();
}

TEST(IntraOpClamp, KeepsWorkerTimesWidthWithinHardware)
{
    // Pure policy function, testable with injected hardware counts
    // (this machine's own core count must not matter here).
    EXPECT_EQ(clampIntraOpThreads(4, 4, 16), 4u);  // fits exactly
    EXPECT_EQ(clampIntraOpThreads(4, 8, 16), 4u);  // clamped to budget
    EXPECT_EQ(clampIntraOpThreads(8, 4, 16), 2u);
    EXPECT_EQ(clampIntraOpThreads(16, 4, 16), 1u); // workers fill the box
    EXPECT_EQ(clampIntraOpThreads(3, 4, 16), 4u);  // 3*4 < 16
    EXPECT_EQ(clampIntraOpThreads(5, 2, 4), 1u);   // budget rounds to 0
    EXPECT_EQ(clampIntraOpThreads(4, 1, 2), 1u);   // serial stays serial
    EXPECT_EQ(clampIntraOpThreads(1, 1, 0), 1u);
    EXPECT_EQ(clampIntraOpThreads(4, 6, 0), 6u);   // unknown hw: no clamp
}

TEST(InferenceServer, IntraOpParallelismKeepsResultsBitwise)
{
    // A conv NODE server at intraOpThreads=4: the tiled conv kernels
    // split across the shared pool inside each worker, and every
    // response must still match the single-threaded reference bit for
    // bit. (On small machines the clamp may reduce the effective
    // width — the bitwise guarantee is width-independent, which is
    // exactly what this asserts.)
    auto make_conv_model = [] {
        Rng rng(kSeed + 7);
        return NodeModel::makeConv(/*num_layers=*/1, /*channels=*/4,
                                   /*f_depth=*/2, rng);
    };
    auto conv_input = [](std::uint64_t salt) {
        Rng rng(kSeed + 2000 + salt);
        return Tensor::randn(Shape{4, 8, 8}, rng, 0.5f);
    };

    const std::size_t n = 6;
    std::vector<Tensor> inputs, expected;
    for (std::size_t i = 0; i < n; i++) {
        inputs.push_back(conv_input(i));
        auto model = make_conv_model();
        FixedFactorController controller;
        expected.push_back(model
                               ->forward(inputs.back(),
                                         ButcherTableau::rk23(), controller,
                                         servingOptions())
                               .output);
    }

    ServerOptions opts = serverOptions(2, 32);
    opts.intraOpThreads = 4;
    InferenceServer server(make_conv_model, opts);
    EXPECT_GE(server.intraOpThreads(), 1u);
    EXPECT_LE(server.intraOpThreads(), 4u);

    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < n; i++) {
        auto sub = server.submit(inputs[i]);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    for (std::size_t i = 0; i < n; i++) {
        InferResponse r = futures[i].get();
        EXPECT_EQ(r.status, RequestStatus::Ok);
        EXPECT_TRUE(bitwiseEqual(r.output, expected[i]))
            << "request " << i
            << " diverged under intra-op parallelism (width "
            << server.intraOpThreads() << ")";
    }
    server.stop();
}

TEST(InferenceServer, PriorityOrderingUnderContention)
{
    // One paused worker; queue up mixed-priority work, then release.
    // Dispatch (and hence completion, with a single worker) must follow
    // the later-stream-first rule with tighter deadlines breaking ties
    // — the scheduling discipline of the sim's PrioritySelector.
    InferenceServer server(makeReferenceModel,
                           serverOptions(1, 16, /*paused=*/true));

    const auto now = RuntimeClock::now();
    const auto loose = now + std::chrono::hours(2);
    const auto tight = now + std::chrono::hours(1);

    struct Spec
    {
        std::uint32_t stream;
        RuntimeClock::time_point deadline;
    };
    // Submission order is deliberately adversarial.
    const std::vector<Spec> specs = {
        {0, loose}, // last
        {2, loose}, // second: same stream as the tight-deadline one
        {1, loose}, // third
        {2, tight}, // first: highest stream, tighter deadline
    };
    const std::vector<std::size_t> want_order = {3, 1, 2, 0};

    std::vector<std::future<InferResponse>> futures;
    for (const auto &spec : specs) {
        auto sub = server.submit(makeInput(7), spec.stream, spec.deadline);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }

    server.resume();
    std::vector<std::uint64_t> completion(specs.size());
    for (std::size_t i = 0; i < specs.size(); i++)
        completion[i] = futures[i].get().completionIndex;

    for (std::size_t rank = 0; rank < want_order.size(); rank++)
        EXPECT_EQ(completion[want_order[rank]], rank)
            << "submission " << want_order[rank]
            << " should have completed " << rank << "th";
    server.stop();
}

TEST(InferenceServer, FifoPolicyServesInAdmissionOrder)
{
    ServerOptions opts = serverOptions(1, 16, /*paused=*/true);
    opts.policy = SelectPolicy::Fifo;
    InferenceServer server(makeReferenceModel, opts);

    std::vector<std::future<InferResponse>> futures;
    for (std::uint32_t stream : {0u, 3u, 1u, 2u}) {
        auto sub = server.submit(makeInput(stream), stream);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.resume();
    for (std::size_t i = 0; i < futures.size(); i++)
        EXPECT_EQ(futures[i].get().completionIndex, i);
    server.stop();
}

TEST(InferenceServer, BackpressureRejectsWhenQueueFull)
{
    InferenceServer server(makeReferenceModel,
                           serverOptions(1, 2, /*paused=*/true));

    auto a = server.submit(makeInput(0));
    auto b = server.submit(makeInput(1));
    auto c = server.submit(makeInput(2)); // queue full: must reject
    EXPECT_TRUE(a.accepted);
    EXPECT_TRUE(b.accepted);
    EXPECT_FALSE(c.accepted);
    EXPECT_EQ(server.queue().rejected(), 1u);
    EXPECT_EQ(server.metrics().summary().rejected, 1u);

    // Draining shutdown completes the admitted requests.
    server.stop(/*drain=*/true);
    EXPECT_EQ(a.result.get().status, RequestStatus::Ok);
    EXPECT_EQ(b.result.get().status, RequestStatus::Ok);
    EXPECT_EQ(server.metrics().summary().completed, 2u);
}

TEST(InferenceServer, NonDrainingShutdownCancelsQueuedWork)
{
    InferenceServer server(makeReferenceModel,
                           serverOptions(2, 16, /*paused=*/true));

    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 5; i++) {
        auto sub = server.submit(makeInput(i));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.stop(/*drain=*/false); // workers never ran: all cancelled
    for (auto &future : futures) {
        InferResponse r = future.get();
        EXPECT_EQ(r.status, RequestStatus::Cancelled);
        EXPECT_TRUE(r.output.empty());
    }
    const MetricsSummary s = server.metrics().summary();
    // Exactly once per request: shutdown now routes cancellations
    // through recordCompletion, the single terminal-state path
    // (regression: a second accounting path used to double-count).
    EXPECT_EQ(s.cancelled, 5u);
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.completed + s.expired + s.failed + s.cancelled,
              s.admitted);

    // Submitting after stop is refused without blocking.
    EXPECT_FALSE(server.submit(makeInput(9)).accepted);
}

TEST(InferenceServer, DrainingShutdownFinishesQueuedWork)
{
    InferenceServer server(makeReferenceModel,
                           serverOptions(2, 16, /*paused=*/true));
    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 6; i++) {
        auto sub = server.submit(makeInput(i));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.stop(/*drain=*/true);
    for (auto &future : futures)
        EXPECT_EQ(future.get().status, RequestStatus::Ok);
    EXPECT_EQ(server.metrics().summary().completed, 6u);
}

TEST(InferenceServer, ManyProducersManyWorkersIntegrity)
{
    const std::size_t producers = 6;
    const std::size_t per_producer = 8;

    // Precompute references single-threaded.
    std::vector<Tensor> expected(producers * per_producer);
    for (std::size_t i = 0; i < expected.size(); i++)
        expected[i] = referenceForward(makeInput(i));

    InferenceServer server(makeReferenceModel, serverOptions(4, 8));
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::size_t> completed{0};

    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; p++) {
        threads.emplace_back([&, p] {
            for (std::size_t j = 0; j < per_producer; j++) {
                const std::size_t idx = p * per_producer + j;
                // Small queue: spin on backpressure until admitted —
                // the closed-loop client pattern.
                InferenceServer::Submission sub;
                do {
                    sub = server.submit(makeInput(idx),
                                        static_cast<std::uint32_t>(p));
                    if (!sub.accepted)
                        std::this_thread::yield();
                } while (!sub.accepted);
                InferResponse r = sub.result.get();
                if (r.status != RequestStatus::Ok ||
                    !bitwiseEqual(r.output, expected[idx]))
                    mismatches.fetch_add(1);
                else
                    completed.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    server.stop();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(completed.load(), producers * per_producer);
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.completed, producers * per_producer);
    EXPECT_GE(s.totalP99Ms, s.totalP50Ms);
    EXPECT_GT(s.meanFEvals, 0.0);
}

TEST(InferenceServer, DestructorDrainsOutstandingWork)
{
    std::future<InferResponse> future;
    {
        InferenceServer server(makeReferenceModel, serverOptions(2, 8));
        auto sub = server.submit(makeInput(3));
        ASSERT_TRUE(sub.accepted);
        future = std::move(sub.result);
        // Server destroyed with the request possibly still queued.
    }
    EXPECT_EQ(future.get().status, RequestStatus::Ok);
}

TEST(InferenceServer, ExpiredRequestFailsAtDequeue)
{
    InferenceServer server(makeReferenceModel,
                           serverOptions(1, 8, /*paused=*/true));
    // Already-expired deadline: the worker fails it the moment it is
    // dequeued — a full solve could only produce a late answer.
    auto sub = server.submit(makeInput(0), 0,
                             RuntimeClock::now() -
                                 std::chrono::milliseconds(1));
    ASSERT_TRUE(sub.accepted);
    server.resume();
    InferResponse r = sub.result.get();
    EXPECT_EQ(r.status, RequestStatus::DeadlineExceeded);
    EXPECT_FALSE(r.deadlineMet);
    EXPECT_TRUE(r.output.empty());
    server.stop();
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.deadlineMisses, 1u);
    EXPECT_EQ(s.completed, 0u);
}

// ---------------------------------------------------------------------
// Fault matrix and graceful degradation
// ---------------------------------------------------------------------

/** Outcome of serving exactly one request on a fresh 1-worker server. */
struct SingleShot
{
    InferResponse response;
    MetricsSummary summary;
};

SingleShot
serveSingle(ServerOptions opts,
            RuntimeClock::time_point deadline =
                RuntimeClock::time_point::max(),
            InferenceServer::ControllerFactory make_controller = {})
{
    opts.numWorkers = 1;
    InferenceServer server(makeReferenceModel, opts,
                           std::move(make_controller));
    auto sub = server.submit(makeInput(0), 0, deadline);
    EXPECT_TRUE(sub.accepted);
    SingleShot shot;
    shot.response = sub.result.get();
    server.stop();
    shot.summary = server.metrics().summary();
    return shot;
}

/** Solver options no solve can satisfy: minDt floor hit immediately. */
ServerOptions
underflowOptions()
{
    ServerOptions opts = serverOptions(1, 8);
    opts.ivp.tolerance = 1e-30;
    opts.ivp.initialDt = 0.05;
    opts.ivp.minDt = 0.04; // one halving lands under the floor
    return opts;
}

TEST(DegradationLadder, RungOneRelaxedRetryRecovers)
{
    setLogLevel(LogLevel::Silent);
    ServerOptions opts = underflowOptions();
    // Relaxed tolerance 1e-30 * 1e28 = 1e-2: trivially satisfiable.
    opts.degrade.retryToleranceFactor = 1e28;
    SingleShot a = serveSingle(opts);
    SingleShot b = serveSingle(opts); // degraded paths are deterministic
    setLogLevel(LogLevel::Info);

    EXPECT_EQ(a.response.status, RequestStatus::Ok);
    EXPECT_TRUE(a.response.degraded);
    EXPECT_EQ(a.response.solveStatus, SolveStatus::StepUnderflow);
    EXPECT_EQ(a.response.retries, 1u);
    EXPECT_TRUE(a.response.output.isFinite());
    EXPECT_EQ(a.summary.completed, 1u);
    EXPECT_EQ(a.summary.degraded, 1u);
    EXPECT_EQ(a.summary.retries, 1u);
    EXPECT_EQ(a.summary.solveStepUnderflow, 1u);
    EXPECT_EQ(a.summary.failed, 0u);
    EXPECT_TRUE(bitwiseEqual(a.response.output, b.response.output))
        << "degraded response must be bit-reproducible";
}

TEST(DegradationLadder, RungTwoFallsBackToFixedStep)
{
    // An eval-budget failure skips the tolerance retry (rung 1 only
    // handles NonFinite/StepUnderflow) and lands on the fixed-step
    // fallback, whose output must equal a hand-rolled integrateFixed
    // pass bit for bit.
    ServerOptions opts = serverOptions(1, 8);
    opts.ivp.maxEvalPoints = 2; // nowhere near t1
    SingleShot shot = serveSingle(opts);

    EXPECT_EQ(shot.response.status, RequestStatus::Ok);
    EXPECT_TRUE(shot.response.degraded);
    EXPECT_EQ(shot.response.solveStatus, SolveStatus::EvalBudgetExhausted);
    EXPECT_EQ(shot.response.retries, 0u);
    EXPECT_EQ(shot.summary.degraded, 1u);
    EXPECT_EQ(shot.summary.solveEvalBudget, 1u);
    EXPECT_EQ(shot.summary.retries, 0u);

    auto model = makeReferenceModel();
    const double T = model->layerTime();
    const double dt =
        T / static_cast<double>(opts.degrade.fallbackSteps);
    Tensor h = makeInput(0);
    for (std::size_t i = 0; i < model->numLayers(); i++) {
        EmbeddedNetOde ode(model->net(i));
        h = integrateFixed(ode, ButcherTableau::rk23(), h, 0.0, T, dt);
    }
    EXPECT_TRUE(bitwiseEqual(shot.response.output, h))
        << "fallback output must match a manual fixed-step pass";
}

TEST(DegradationLadder, FEvalBudgetDegradesViaGuard)
{
    ServerOptions opts = serverOptions(1, 8);
    opts.degrade.maxFEvalsPerRequest = 1; // spent at the first step
    SingleShot shot = serveSingle(opts);
    EXPECT_EQ(shot.response.status, RequestStatus::Ok);
    EXPECT_TRUE(shot.response.degraded);
    EXPECT_EQ(shot.response.solveStatus, SolveStatus::DeadlineExceeded);
    EXPECT_EQ(shot.summary.solveDeadline, 1u);
    EXPECT_EQ(shot.summary.degraded, 1u);
}

TEST(DegradationLadder, FEvalBudgetSpansEveryLayer)
{
    // A per-request budget that each layer's solve fits in but the
    // whole forward pass does not: the request is over budget, and it
    // takes the same ladder path as a budget spent at the first step.
    auto model = makeReferenceModel();
    FixedFactorController controller;
    const NodeForwardResult clean = model->forward(
        makeInput(0), ButcherTableau::rk23(), controller, servingOptions());
    ASSERT_EQ(clean.status, SolveStatus::Ok);
    std::uint64_t widest_layer = 0;
    for (const IvpResult &layer : clean.layers)
        widest_layer = std::max(widest_layer, layer.stats.fEvals);
    ASSERT_LT(widest_layer, clean.totalStats.fEvals);

    ServerOptions opts = serverOptions(1, 8);
    opts.degrade.maxFEvalsPerRequest = widest_layer;
    SingleShot shot = serveSingle(opts);
    EXPECT_EQ(shot.response.status, RequestStatus::Ok);
    EXPECT_TRUE(shot.response.degraded);
    EXPECT_EQ(shot.response.solveStatus, SolveStatus::DeadlineExceeded);
    EXPECT_EQ(shot.summary.solveDeadline, 1u);
    EXPECT_EQ(shot.summary.degraded, 1u);
}

TEST(DegradationLadder, DisabledMeansFailuresAreTerminal)
{
    setLogLevel(LogLevel::Silent);
    ServerOptions opts = underflowOptions();
    opts.degrade.enabled = false;
    SingleShot shot = serveSingle(opts);
    setLogLevel(LogLevel::Info);

    EXPECT_EQ(shot.response.status, RequestStatus::Failed);
    EXPECT_TRUE(shot.response.output.empty());
    EXPECT_EQ(shot.response.solveStatus, SolveStatus::StepUnderflow);
    EXPECT_EQ(shot.response.retries, 0u);
    EXPECT_EQ(shot.summary.failed, 1u);
    EXPECT_EQ(shot.summary.solveStepUnderflow, 1u);
    EXPECT_EQ(shot.summary.degraded, 0u);
    EXPECT_EQ(shot.summary.completed, 0u);
}

TEST(DegradationLadder, PersistentCorruptionExhaustsEveryRung)
{
    // NaN corruption on every f evaluation poisons the first attempt,
    // the relaxed retry, and the fixed-step fallback alike: the ladder
    // runs out and the request fails — with an empty payload, never a
    // NaN one.
    setLogLevel(LogLevel::Silent);
    FaultPlan plan;
    plan.seed = 11;
    FaultSpec spec;
    spec.site = "node.feval";
    spec.kind = FaultKind::CorruptNaN;
    spec.firstHit = 0;
    spec.count = std::numeric_limits<std::uint64_t>::max();
    plan.faults.push_back(spec);
    ScopedFaultPlan scoped(plan);

    ServerOptions opts = serverOptions(1, 8);
    opts.ivp.maxTrialsPerPoint = 4; // poisoned points fail fast
    SingleShot shot = serveSingle(opts);
    setLogLevel(LogLevel::Info);

    EXPECT_EQ(shot.response.status, RequestStatus::Failed);
    EXPECT_TRUE(shot.response.output.empty());
    EXPECT_EQ(shot.response.solveStatus, SolveStatus::NonFinite);
    EXPECT_EQ(shot.response.retries, 1u);
    EXPECT_EQ(shot.summary.failed, 1u);
    EXPECT_EQ(shot.summary.solveNonFinite, 1u);
    EXPECT_EQ(shot.summary.retries, 1u);
    EXPECT_EQ(shot.summary.degraded, 0u);
}

TEST(FaultMatrix, EveryStatusReachableWithMatchingCounters)
{
    setLogLevel(LogLevel::Silent);
    bool seen_request[kNumRequestStatuses] = {};
    bool seen_solve[kNumSolveStatuses] = {};
    auto see = [&](const InferResponse &r) {
        seen_request[static_cast<std::size_t>(r.status)] = true;
        seen_solve[static_cast<std::size_t>(r.solveStatus)] = true;
        // The acceptance bar: no response, however it ended, ever
        // carries a non-finite value.
        if (!r.output.empty())
            EXPECT_TRUE(r.output.isFinite());
        else
            EXPECT_NE(r.status, RequestStatus::Ok);
    };

    { // RequestStatus::Ok + SolveStatus::Ok: the clean path.
        SingleShot s = serveSingle(serverOptions(1, 8));
        EXPECT_EQ(s.response.status, RequestStatus::Ok);
        EXPECT_FALSE(s.response.degraded);
        EXPECT_EQ(s.summary.completed, 1u);
        EXPECT_EQ(s.summary.degraded + s.summary.failed +
                      s.summary.expired,
                  0u);
        see(s.response);
    }
    { // SolveStatus::StepUnderflow, recovered by rung 1.
        ServerOptions opts = underflowOptions();
        opts.degrade.retryToleranceFactor = 1e28;
        SingleShot s = serveSingle(opts);
        EXPECT_EQ(s.summary.solveStepUnderflow, 1u);
        see(s.response);
    }
    { // SolveStatus::TrialBudgetExhausted, recovered by rung 2. The
      // constant-init controller restarts every point from C, so the
      // trial cap (not the minDt floor) is what forces each accept.
        ServerOptions opts = serverOptions(1, 8);
        opts.ivp.tolerance = 1e-30;
        opts.ivp.minDt = 1e-12; // the floor is never the binding limit
        opts.ivp.maxTrialsPerPoint = 3;
        SingleShot s = serveSingle(
            opts, RuntimeClock::time_point::max(),
            [] { return std::make_unique<ConstantInitController>(); });
        EXPECT_EQ(s.response.status, RequestStatus::Ok);
        EXPECT_TRUE(s.response.degraded);
        EXPECT_EQ(s.summary.solveTrialBudget, 1u);
        see(s.response);
    }
    { // SolveStatus::EvalBudgetExhausted, recovered by rung 2.
        ServerOptions opts = serverOptions(1, 8);
        opts.ivp.maxEvalPoints = 2;
        SingleShot s = serveSingle(opts);
        EXPECT_EQ(s.summary.solveEvalBudget, 1u);
        see(s.response);
    }
    { // SolveStatus::DeadlineExceeded via the f-eval budget guard.
        ServerOptions opts = serverOptions(1, 8);
        opts.degrade.maxFEvalsPerRequest = 1;
        SingleShot s = serveSingle(opts);
        EXPECT_EQ(s.summary.solveDeadline, 1u);
        see(s.response);
    }
    { // SolveStatus::NonFinite + RequestStatus::Failed: the ladder
      // cannot outrun persistent corruption.
        FaultPlan plan;
        plan.seed = 12;
        FaultSpec spec;
        spec.site = "node.feval";
        spec.kind = FaultKind::CorruptInf;
        spec.firstHit = 0;
        spec.count = std::numeric_limits<std::uint64_t>::max();
        plan.faults.push_back(spec);
        ScopedFaultPlan scoped(plan);
        ServerOptions opts = serverOptions(1, 8);
        opts.ivp.maxTrialsPerPoint = 4;
        SingleShot s = serveSingle(opts);
        EXPECT_EQ(s.response.status, RequestStatus::Failed);
        EXPECT_EQ(s.summary.failed, 1u);
        EXPECT_EQ(s.summary.solveNonFinite, 1u);
        see(s.response);
    }
    { // RequestStatus::DeadlineExceeded: expired before dequeue.
        SingleShot s = serveSingle(serverOptions(1, 8),
                                   RuntimeClock::now() -
                                       std::chrono::milliseconds(1));
        EXPECT_EQ(s.response.status, RequestStatus::DeadlineExceeded);
        EXPECT_EQ(s.summary.expired, 1u);
        see(s.response);
    }
    { // RequestStatus::Cancelled: non-draining shutdown.
        InferenceServer server(makeReferenceModel,
                               serverOptions(1, 8, /*paused=*/true));
        auto sub = server.submit(makeInput(0));
        ASSERT_TRUE(sub.accepted);
        server.stop(/*drain=*/false);
        InferResponse r = sub.result.get();
        EXPECT_EQ(r.status, RequestStatus::Cancelled);
        EXPECT_EQ(server.metrics().summary().cancelled, 1u);
        see(r);
    }
    { // RequestStatus::Shed: admission control turns a request that is
      // already past its deadline at submit away before it costs a
      // worker anything. Shed requests count as admitted.
        ServerOptions opts = serverOptions(1, 8);
        opts.overload.enabled = true;
        SingleShot s = serveSingle(opts, RuntimeClock::now() -
                                             std::chrono::milliseconds(1));
        EXPECT_EQ(s.response.status, RequestStatus::Shed);
        EXPECT_FALSE(s.response.deadlineMet);
        EXPECT_EQ(s.summary.shed, 1u);
        EXPECT_EQ(s.summary.admitted,
                  s.summary.completed + s.summary.expired +
                      s.summary.failed + s.summary.cancelled +
                      s.summary.shed);
        see(s.response);
    }
    { // RequestStatus::InvalidInput: a state the model cannot take is
      // refused at submit, counted admitted and terminal like a shed.
        InferenceServer server(makeReferenceModel, serverOptions(1, 8));
        auto sub = server.submit(Tensor(Shape{kDim + 1}));
        ASSERT_TRUE(sub.accepted);
        const InferResponse r = sub.result.get();
        server.stop();
        EXPECT_EQ(r.status, RequestStatus::InvalidInput);
        const MetricsSummary s = server.metrics().summary();
        EXPECT_EQ(s.invalid, 1u);
        EXPECT_EQ(s.admitted,
                  s.completed + s.expired + s.failed + s.cancelled + s.shed +
                      s.invalid);
        see(r);
    }
    setLogLevel(LogLevel::Info);

    for (std::size_t i = 0; i < kNumRequestStatuses; i++)
        EXPECT_TRUE(seen_request[i])
            << "unreached RequestStatus: "
            << requestStatusName(static_cast<RequestStatus>(i));
    for (std::size_t i = 0; i < kNumSolveStatuses; i++)
        EXPECT_TRUE(seen_solve[i])
            << "unreached SolveStatus: "
            << solveStatusName(static_cast<SolveStatus>(i));
}

TEST(Watchdog, TripsOnHungSolveAndWorkerRecovers)
{
    setLogLevel(LogLevel::Silent);
    // Wedge the first solve for 300 ms against a 40 ms hang budget: the
    // watchdog must fail the request long before the worker wakes, and
    // the worker must serve the next request normally afterwards.
    FaultPlan plan;
    FaultSpec stall;
    stall.site = "worker.stall";
    stall.kind = FaultKind::Stall;
    stall.firstHit = 0;
    stall.count = 1;
    stall.stallMs = 300.0;
    plan.faults.push_back(stall);
    ScopedFaultPlan scoped(plan);

    ServerOptions opts = serverOptions(1, 8);
    opts.degrade.watchdogMs = 40.0;
    InferenceServer server(makeReferenceModel, opts);

    auto first = server.submit(makeInput(0));
    ASSERT_TRUE(first.accepted);
    InferResponse r1 = first.result.get();
    EXPECT_EQ(r1.status, RequestStatus::Failed);
    EXPECT_EQ(r1.solveStatus, SolveStatus::DeadlineExceeded);
    EXPECT_TRUE(r1.output.empty());
    EXPECT_GE(r1.solveMs, opts.degrade.watchdogMs);
    // The request carried no deadline: a watchdog trip must not invent
    // a miss (regression: the in-flight slot's deadline used to
    // value-initialize to the clock epoch instead of "none").
    EXPECT_TRUE(r1.deadlineMet);

    auto second = server.submit(makeInput(1));
    ASSERT_TRUE(second.accepted);
    EXPECT_EQ(second.result.get().status, RequestStatus::Ok);
    server.stop();
    setLogLevel(LogLevel::Info);

    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.watchdogTrips, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.solveDeadline, 1u);
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.deadlineMisses, 0u);
}

/**
 * Sleeps in its second reset(). Under underflowOptions() the rung-0
 * solve fails at the first layer (one reset), so the second reset is
 * the start of the rung-1 retry, which this sample's slot controller
 * runs.
 */
class StallOnRetryController : public FixedFactorController
{
  public:
    void
    reset(double initial_dt) override
    {
        if (++resets_ == 2)
            std::this_thread::sleep_for(std::chrono::milliseconds(400));
        FixedFactorController::reset(initial_dt);
    }

  private:
    int resets_ = 0;
};

TEST(Watchdog, TakeoverDuringRetrySkipsTheFallback)
{
    // The watchdog fails the request while its rung-1 retry is stalled,
    // and the retry aborts at its next accepted step. The worker must
    // not go on to run the fixed-step fallback: the watchdog's response
    // already won, so the fallback's result could only be thrown away.
    setLogLevel(LogLevel::Silent);
    for (const std::size_t max_batch : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE("maxBatch " + std::to_string(max_batch));
        ServerOptions opts = underflowOptions();
        opts.maxBatch = max_batch;
        opts.degrade.watchdogMs = 100.0;
        opts.traceEnabled = true;
        InferenceServer server(makeReferenceModel, opts, [] {
            return std::make_unique<StallOnRetryController>();
        });
        auto sub = server.submit(makeInput(0));
        ASSERT_TRUE(sub.accepted);
        InferResponse r = sub.result.get();
        EXPECT_EQ(r.status, RequestStatus::Failed);
        EXPECT_EQ(r.solveStatus, SolveStatus::DeadlineExceeded);
        server.stop(); // waits for the worker to finish the dispatch
        EXPECT_EQ(server.metrics().summary().watchdogTrips, 1u);

        std::size_t retries = 0, fallbacks = 0;
        for (const TraceEvent &e : Tracer::instance().snapshot()) {
            if (e.name == nullptr)
                continue;
            retries += std::string(e.name) == "request.retry";
            fallbacks += std::string(e.name) == "request.fallback";
        }
        EXPECT_EQ(retries, 1u);
        EXPECT_EQ(fallbacks, 0u) << "fallback ran after a watchdog takeover";
    }
    Tracer::instance().arm(1); // flush this test's events
    Tracer::instance().disarm();
    setLogLevel(LogLevel::Info);
}

TEST(InferenceServer, InjectedAdmissionRejection)
{
    // A forced queue-full rejection at the second submit: the client
    // sees ordinary backpressure, the other requests are unaffected.
    FaultPlan plan;
    FaultSpec reject;
    reject.site = "queue.push";
    reject.kind = FaultKind::Reject;
    reject.firstHit = 1;
    reject.count = 1;
    plan.faults.push_back(reject);
    ScopedFaultPlan scoped(plan);

    InferenceServer server(makeReferenceModel, serverOptions(1, 8));
    auto a = server.submit(makeInput(0));
    auto b = server.submit(makeInput(1));
    auto c = server.submit(makeInput(2));
    EXPECT_TRUE(a.accepted);
    EXPECT_FALSE(b.accepted);
    EXPECT_TRUE(c.accepted);
    EXPECT_EQ(a.result.get().status, RequestStatus::Ok);
    EXPECT_EQ(c.result.get().status, RequestStatus::Ok);
    server.stop();
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.completed, 2u);
}

TEST(MetricsRegistry, SnapshotPublishesPercentileKeys)
{
    MetricsRegistry registry;
    for (int i = 1; i <= 100; i++) {
        InferResponse r;
        r.status = RequestStatus::Ok;
        r.queueWaitMs = i * 0.1;
        r.solveMs = i * 1.0;
        r.totalMs = i * 1.1;
        r.stats.fEvals = static_cast<std::uint64_t>(i);
        r.stats.trials = 2;
        registry.recordAdmitted();
        registry.recordCompletion(r);
    }
    const StatGroup group = registry.snapshot();
    EXPECT_EQ(group.get("requests.completed"), 100.0);
    EXPECT_NEAR(group.get("latency.solve.p50_ms"), 50.5, 1.0);
    EXPECT_NEAR(group.get("latency.solve.p99_ms"), 99.0, 1.1);
    EXPECT_GT(group.get("latency.total.p95_ms"),
              group.get("latency.total.p50_ms"));
    EXPECT_NEAR(group.get("latency.total.max_ms"), 110.0, 1e-9);
}

TEST(MetricsRegistry, TerminalStatesReconcileWithMixedOutcomes)
{
    // Two normal requests plus one admitted with an already-expired
    // deadline; after a draining stop every admitted request must be in
    // exactly one terminal state.
    InferenceServer server(makeReferenceModel,
                           serverOptions(1, 8, /*paused=*/true));
    auto a = server.submit(makeInput(0));
    auto b = server.submit(makeInput(1));
    auto c = server.submit(makeInput(2), /*stream=*/0,
                           RuntimeClock::now() -
                               std::chrono::milliseconds(5));
    ASSERT_TRUE(a.accepted && b.accepted && c.accepted);
    server.resume();
    EXPECT_EQ(a.result.get().status, RequestStatus::Ok);
    EXPECT_EQ(b.result.get().status, RequestStatus::Ok);
    EXPECT_EQ(c.result.get().status, RequestStatus::DeadlineExceeded);
    server.stop();

    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.admitted, 3u);
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.completed + s.expired + s.failed + s.cancelled,
              s.admitted);
}

TEST(RequestQueue, ClosedRejectsAreCountedSeparately)
{
    RequestQueue queue(2, SelectPolicy::Fifo);
    QueueEntry e1, e2;
    EXPECT_TRUE(queue.tryPush(e1));
    EXPECT_TRUE(queue.tryPush(e2));
    QueueEntry full;
    EXPECT_FALSE(queue.tryPush(full)); // capacity: a backpressure event
    EXPECT_EQ(queue.rejected(), 1u);
    EXPECT_EQ(queue.closedRejected(), 0u);

    queue.close(/*drain=*/true);
    QueueEntry late;
    EXPECT_FALSE(queue.tryPush(late));
    EXPECT_FALSE(queue.tryPush(late));
    // A push racing shutdown is a lifecycle event, not backpressure —
    // and it must be *counted* (regression: it used to vanish).
    EXPECT_EQ(queue.rejected(), 1u);
    EXPECT_EQ(queue.closedRejected(), 2u);
}

TEST(InferenceServer, QueueAndRegistryRejectCountersReconcile)
{
    // One real capacity rejection: paused single worker, capacity 2.
    InferenceServer server(makeReferenceModel,
                           serverOptions(1, 2, /*paused=*/true));
    auto a = server.submit(makeInput(0));
    auto b = server.submit(makeInput(1));
    auto c = server.submit(makeInput(2)); // queue full
    EXPECT_TRUE(a.accepted && b.accepted);
    EXPECT_FALSE(c.accepted);
    server.resume();
    server.stop(/*drain=*/true);

    const MetricsSummary s = server.metrics().summary();
    // Every registry-level rejection is a queue-level capacity
    // rejection here (no fault injection in play), and closed-queue
    // turnaways stayed at zero because submit() gates on stopped_
    // before touching the queue.
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(server.queue().rejected(), 1u);
    EXPECT_EQ(server.queue().closedRejected(), 0u);
    EXPECT_EQ(s.admitted, 2u);
    EXPECT_EQ(s.completed + s.expired + s.failed + s.cancelled,
              s.admitted);
}

TEST(Tracing, ServerEmitsRequestLadderAndSolverSpans)
{
    ServerOptions opts = serverOptions(2, 16);
    opts.traceEnabled = true;
    opts.traceRingCapacity = std::size_t{1} << 12;
    const std::size_t n = 6;
    std::set<std::size_t> serving_workers;
    {
        InferenceServer server(makeReferenceModel, opts);
        std::vector<std::future<InferResponse>> futures;
        for (std::size_t i = 0; i < n; i++) {
            auto sub = server.submit(makeInput(i));
            ASSERT_TRUE(sub.accepted);
            futures.push_back(std::move(sub.result));
        }
        for (auto &future : futures) {
            const InferResponse r = future.get();
            EXPECT_EQ(r.status, RequestStatus::Ok);
            serving_workers.insert(r.workerId);
        }
        server.stop();
    }
    // stop() disarms but keeps the events for export.
    EXPECT_FALSE(Tracer::instance().armed());
    const auto events = Tracer::instance().snapshot();
    const auto count = [&events](const char *name) {
        std::size_t matches = 0;
        for (const TraceEvent &e : events)
            if (e.name != nullptr && std::string(e.name) == name)
                matches++;
        return matches;
    };
    EXPECT_EQ(count("request.serve"), n);
    EXPECT_EQ(count("request.queue_wait"), n);
    EXPECT_EQ(count("request.solve"), n);
    // One solve.ivp per integration layer per request, many trials each.
    EXPECT_GE(count("solve.ivp"), n);
    EXPECT_GT(count("solve.trial"), count("solve.ivp"));

    const std::string json = Tracer::instance().chromeTraceJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("request.serve"), std::string::npos);
    // Each worker that served names its thread in the export. (Which
    // workers serve is up to the scheduler: one can take all six
    // requests before the other reaches the queue.)
    for (const std::size_t id : serving_workers)
        EXPECT_NE(json.find("\"worker-" + std::to_string(id) + "\""),
                  std::string::npos)
            << "worker " << id;
    Tracer::instance().arm(1); // flush this test's events
    Tracer::instance().disarm();
}

TEST(MetricsPublisher, SamplesGaugesIntoLastAndSeriesStats)
{
    MetricsPublisher publisher;
    std::atomic<int> value{1};
    publisher.addGauge("test.value", [&value] {
        return static_cast<double>(value.load());
    });
    publisher.start(2.0);
    value.store(5);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    publisher.stop();

    // At least the synchronous start and stop samples.
    EXPECT_GE(publisher.samples(), 2u);
    const StatGroup group = publisher.snapshot();
    EXPECT_DOUBLE_EQ(group.get("test.value.last"), 5.0);
    EXPECT_DOUBLE_EQ(group.get("test.value.min"), 1.0);
    EXPECT_DOUBLE_EQ(group.get("test.value.max"), 5.0);
    EXPECT_EQ(group.get("publisher.samples"),
              static_cast<double>(publisher.samples()));
    publisher.stop(); // idempotent
}

TEST(Exposition, RendersPrometheusTextWithTypesAndSanitizedNames)
{
    StatGroup group("runtime");
    group.setCounter("requests.admitted", 12.0);
    group.set("latency.total.p99_ms", 4.25);
    group.set("broken.value", std::numeric_limits<double>::quiet_NaN());
    const std::string text = prometheusText(group);

    EXPECT_NE(text.find("# HELP enode_requests_admitted"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE enode_requests_admitted counter"),
              std::string::npos);
    EXPECT_NE(text.find("enode_requests_admitted 12"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE enode_latency_total_p99_ms gauge"),
              std::string::npos);
    EXPECT_NE(text.find("enode_latency_total_p99_ms 4.25"),
              std::string::npos);
    // Non-finite values are unrepresentable in the text format and
    // must be skipped, not rendered as "nan".
    EXPECT_EQ(text.find("broken"), std::string::npos);

    EXPECT_EQ(prometheusMetricName("latency.total.p99_ms"),
              "enode_latency_total_p99_ms");
    EXPECT_EQ(prometheusMetricName("9lives", ""), "_9lives");
}

TEST(Exposition, LiveServerTypesEachFamilyOnceAsItsProducerDeclared)
{
    // Every module metricsText() bundles is on: registry, queue, cache,
    // overload, publisher, model and train.
    ServerOptions opts = serverOptions(1, 2, /*paused=*/true);
    opts.cache.enabled = true;
    opts.overload.enabled = true;
    opts.publishPeriodMs = 5.0;
    InferenceServer server(makeReferenceModel, opts);
    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 2; i++) {
        auto sub = server.submit(makeInput(i));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    EXPECT_FALSE(server.submit(makeInput(2)).accepted); // queue full
    server.resume();
    for (auto &future : futures)
        EXPECT_EQ(future.get().status, RequestStatus::Ok);
    server.stop();

    struct Family
    {
        int helps = 0;
        int types = 0;
        std::string type;
    };
    std::map<std::string, Family> families;
    const std::string text = server.metricsText();
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        std::istringstream words(line);
        std::string hash, tag, name, type;
        words >> hash >> tag >> name >> type;
        if (hash != "#")
            continue;
        Family &family = families[name];
        if (tag == "HELP") {
            family.helps++;
        } else {
            ASSERT_EQ(tag, "TYPE");
            family.types++;
            family.type = type;
        }
    }
    ASSERT_FALSE(families.empty());
    for (const auto &[name, family] : families) {
        EXPECT_EQ(family.helps, 1) << name;
        EXPECT_EQ(family.types, 1) << name;
    }
    const auto typeOf = [&families](const std::string &name) {
        const auto it = families.find(name);
        return it == families.end() ? std::string("missing")
                                    : it->second.type;
    };

    // Counts and accumulated time are counters wherever they are set.
    for (const char *name :
         {"enode_queue_rejected", "enode_queue_closed_rejected",
          "enode_overload_residency_l0_ms", "enode_overload_residency_l1_ms",
          "enode_overload_residency_l2_ms", "enode_overload_residency_l3_ms",
          "enode_requests_admitted", "enode_cache_exact_hit",
          "enode_model_swaps", "enode_train_tasks"})
        EXPECT_EQ(typeOf(name), "counter") << name;
    for (const char *name :
         {"enode_latency_total_p99_ms", "enode_queue_depth",
          "enode_overload_brownout_level"})
        EXPECT_EQ(typeOf(name), "gauge") << name;
    EXPECT_NE(text.find("enode_queue_rejected 1\n"), std::string::npos);
}

TEST(InferenceServer, PublisherGaugesAppearInMetricsText)
{
    ServerOptions opts = serverOptions(2, 16);
    opts.publishPeriodMs = 5.0;
    InferenceServer server(makeReferenceModel, opts);
    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 4; i++) {
        auto sub = server.submit(makeInput(i));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    for (auto &future : futures)
        EXPECT_EQ(future.get().status, RequestStatus::Ok);
    server.stop();

    ASSERT_NE(server.publisher(), nullptr);
    EXPECT_GE(server.publisher()->samples(), 2u);
    EXPECT_EQ(server.activeWorkers(), 0u);

    const std::string text = server.metricsText();
    EXPECT_NE(text.find("enode_requests_admitted 4"), std::string::npos);
    EXPECT_NE(text.find("enode_queue_depth"), std::string::npos);
    EXPECT_NE(text.find("enode_queue_closed_rejected"),
              std::string::npos);
    EXPECT_NE(text.find("enode_workers_in_flight_last"),
              std::string::npos);
    EXPECT_NE(text.find("enode_workers_occupancy_max"),
              std::string::npos);
    EXPECT_NE(text.find("enode_publisher_samples"), std::string::npos);
}

} // namespace
} // namespace enode
