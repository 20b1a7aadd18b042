/**
 * @file
 * Online training as a runtime service: model-registry versioning,
 * deterministic (worker-count-independent) gradient reduction, weight
 * hot-swaps under concurrent inference load with exact terminal-counter
 * reconciliation, and version-safe cache behavior across swaps. Built
 * and run under ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/rng.h"
#include "ode/step_control.h"
#include "runtime/inference_server.h"
#include "runtime/solve_cache.h"
#include "runtime/training_service.h"

namespace enode {
namespace {

constexpr std::uint64_t kSeed = 737373;
constexpr std::size_t kDim = 6;

/** Deterministic factory: every call yields bit-identical weights. */
std::unique_ptr<NodeModel>
makeReferenceModel()
{
    Rng rng(kSeed);
    return NodeModel::makeMlp(/*num_layers=*/1, kDim, /*hidden=*/16,
                              /*f_depth=*/1, rng);
}

IvpOptions
servingOptions()
{
    IvpOptions opts;
    opts.tolerance = 1e-4;
    opts.initialDt = 0.1;
    opts.recordCheckpoints = false;
    return opts;
}

ServerOptions
serverOptions(std::size_t workers, std::size_t capacity)
{
    ServerOptions opts;
    opts.numWorkers = workers;
    opts.queueCapacity = capacity;
    opts.ivp = servingOptions();
    return opts;
}

TrainingOptions
trainingOptions(std::size_t batch, std::size_t publish_every)
{
    TrainingOptions opts;
    opts.learningRate = 0.05;
    opts.momentum = 0.9;
    opts.batchSize = batch;
    opts.publishEvery = publish_every;
    opts.ivp.tolerance = 1e-3;
    opts.ivp.initialDt = 0.2;
    return opts;
}

Tensor
makeInput(std::uint64_t salt)
{
    Rng rng(kSeed + 1000 + salt);
    return Tensor::randn(Shape{kDim}, rng, 0.5f);
}

/** Deterministic example stream shared by every determinism run. */
TrainExample
makeExample(std::uint64_t index)
{
    Rng rng(kSeed + 5000 + index);
    TrainExample ex;
    ex.input = Tensor::randn(Shape{kDim}, rng, 0.5f);
    ex.target = ex.input * 0.5f;
    return ex;
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       a.numel() * sizeof(float)) == 0;
}

/** A train.* counter of the server (e.g. "yields": the yield points
 *  at which its training tasks served inference), read from its
 *  exposition as an operator would. */
double
trainCounter(const InferenceServer &server, const std::string &name)
{
    const std::string text = server.metricsText();
    const std::string key = "\nenode_train_" + name + " ";
    const auto at = text.find(key);
    EXPECT_NE(at, std::string::npos) << text;
    return at == std::string::npos ? -1.0
                                   : std::stod(text.substr(at + key.size()));
}

/**
 * A model whose training task runs for milliseconds, not microseconds:
 * two wider layers, trained at a tight tolerance (slowTrainingOptions).
 * Long enough that a request submitted once the task is seen running
 * arrives, and is answered, while the task still runs.
 */
std::unique_ptr<NodeModel>
makeSlowModel()
{
    Rng rng(kSeed);
    return NodeModel::makeMlp(/*num_layers=*/2, kDim, /*hidden=*/64,
                              /*f_depth=*/2, rng);
}

TrainingOptions
slowTrainingOptions(std::size_t batch)
{
    TrainingOptions opts = trainingOptions(batch, /*publish_every=*/0);
    opts.ivp.tolerance = 1e-6;
    return opts;
}

/** A stall of `ms` before the first step of each of the first `count`
 *  training tasks: a window in which a task is known to be running. */
FaultSpec
taskStall(double ms, std::uint64_t count = 1)
{
    return {"train.stall", FaultKind::Stall, /*firstHit=*/0, count, ms};
}

/** Run one training step of `examples` on another thread, and return
 *  once a worker has started its first task. */
std::future<TrainStepOutcome>
stepInBackground(InferenceServer &server, TrainingService &service,
                 std::vector<TrainExample> examples)
{
    auto outcome = std::async(std::launch::async,
                              [&service, examples = std::move(examples)] {
                                  return service.step(examples);
                              });
    while (trainCounter(server, "tasks") == 0.0)
        std::this_thread::yield();
    return outcome;
}

// ---------------------------------------------------------------------
// Model registry
// ---------------------------------------------------------------------

TEST(ModelRegistry, SeedPublishApplyRoundtrip)
{
    auto a = makeReferenceModel();
    auto b = makeReferenceModel();

    ModelRegistry registry;
    registry.seed(*a);
    EXPECT_EQ(registry.latestVersion(), 0u);
    const auto v0_snap = registry.latest();
    EXPECT_EQ(v0_snap->version, 0u);

    // Perturb a's weights, publish, and apply the snapshot to b: b must
    // become bitwise identical to a.
    auto slots_a = a->paramSlots();
    slots_a[0].param->at(0) += 1.0f;
    const std::uint64_t v1 = registry.publish(ModelRegistry::capture(*a));
    EXPECT_EQ(v1, 1u);
    EXPECT_EQ(registry.latestVersion(), 1u);
    EXPECT_EQ(registry.published(), 1u);
    const auto v1_snap = registry.latest();
    EXPECT_EQ(v1_snap->version, 1u);

    ModelRegistry::applyTo(*v1_snap, *b);
    auto slots_b = b->paramSlots();
    ASSERT_EQ(slots_a.size(), slots_b.size());
    for (std::size_t s = 0; s < slots_a.size(); s++)
        EXPECT_TRUE(bitwiseEqual(*slots_a[s].param, *slots_b[s].param))
            << "slot " << s << " diverged after applyTo";

    // Distinct weights -> distinct params digests; same weights -> same.
    EXPECT_NE(v0_snap->paramsDigest.hi, v1_snap->paramsDigest.hi);
    const auto recapture = ModelRegistry::capture(*a);
    EXPECT_EQ(recapture->paramsDigest.hi, v1_snap->paramsDigest.hi);
    EXPECT_EQ(recapture->paramsDigest.lo, v1_snap->paramsDigest.lo);
}

// ---------------------------------------------------------------------
// Deterministic reduction: bitwise identical across worker counts
// ---------------------------------------------------------------------

TEST(TrainingService, GradientsBitwiseIdenticalAcrossWorkerCounts)
{
    // The acceptance criterion: the reduced gradient of every step —
    // and therefore the whole training trajectory — must be bitwise
    // identical whether the tasks ran on 1, 2 or 4 workers. The
    // fixed-slot tree reduction plus the per-task determinism of the
    // solver make the worker count unobservable.
    //
    // The last run adds inference traffic on one worker: each task
    // stalls for a few milliseconds before its first step, and a
    // producer submits a stream-1 request whenever a task starts, so
    // the tasks of every step yield to inference at a step boundary.
    // Serving inference inside a task must not change its gradient.
    constexpr std::size_t kBatch = 4;
    constexpr int kSteps = 3;

    struct Run
    {
        std::size_t workers;
        bool traffic;
    };
    std::vector<Hash128> reference_digests;
    Hash128 reference_weights;
    for (const Run run : {Run{1, false}, Run{2, false}, Run{4, false},
                          Run{1, true}}) {
        const std::size_t workers = run.workers;
        InferenceServer server(makeReferenceModel,
                               serverOptions(workers, 64));
        TrainingService service(server, makeReferenceModel(),
                                trainingOptions(kBatch,
                                                /*publish_every=*/0));
        std::optional<ScopedFaultPlan> stall;
        if (run.traffic)
            stall.emplace(FaultPlan{0, {taskStall(5.0, UINT64_MAX)}});
        std::atomic<bool> done{false};
        std::thread producer;
        if (run.traffic) {
            producer = std::thread([&] {
                double started = 0.0;
                for (std::uint64_t i = 0; !done.load();) {
                    const double tasks = trainCounter(server, "tasks");
                    if (tasks == started) {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(100));
                        continue;
                    }
                    started = tasks;
                    auto sub = server.submit(makeInput(i++ % 16),
                                             /*stream=*/1);
                    if (sub.accepted)
                        sub.result.get();
                }
            });
        }
        std::vector<Hash128> digests;
        for (int step = 0; step < kSteps; step++) {
            std::vector<TrainExample> batch;
            for (std::size_t b = 0; b < kBatch; b++)
                batch.push_back(
                    makeExample(static_cast<std::uint64_t>(step) * kBatch +
                                b));
            const TrainStepOutcome out = service.step(batch);
            EXPECT_EQ(out.tasksFailed, 0u);
            ASSERT_TRUE(out.gradDigest.valid());
            digests.push_back(out.gradDigest);
        }
        const Hash128 weights =
            ModelRegistry::capture(service.master())->paramsDigest;
        done.store(true);
        if (producer.joinable())
            producer.join();
        if (run.traffic) {
            EXPECT_GT(trainCounter(server, "yields"), 0.0)
                << "no training task yielded to the traffic";
        }
        server.stop();

        if (reference_digests.empty()) {
            reference_digests = digests;
            reference_weights = weights;
            continue;
        }
        for (int step = 0; step < kSteps; step++) {
            EXPECT_EQ(digests[step].hi, reference_digests[step].hi)
                << workers << " workers, step " << step;
            EXPECT_EQ(digests[step].lo, reference_digests[step].lo)
                << workers << " workers, step " << step;
        }
        EXPECT_EQ(weights.hi, reference_weights.hi)
            << workers << " workers: master weights diverged";
        EXPECT_EQ(weights.lo, reference_weights.lo);
    }
}

TEST(TrainingService, LossDecreasesOverSteps)
{
    InferenceServer server(makeReferenceModel, serverOptions(2, 64));
    TrainingService service(server, makeReferenceModel(),
                            trainingOptions(/*batch=*/4,
                                            /*publish_every=*/0));
    // One fixed batch trained repeatedly: the loss must fall hard.
    std::vector<TrainExample> batch;
    for (std::size_t b = 0; b < 4; b++)
        batch.push_back(makeExample(b));

    double first = 0.0, last = 0.0;
    for (int step = 0; step < 30; step++) {
        const TrainStepOutcome out = service.step(batch);
        ASSERT_EQ(out.tasksFailed, 0u);
        if (step == 0)
            first = out.meanLoss;
        last = out.meanLoss;
    }
    server.stop();
    EXPECT_LT(last, 0.2 * first)
        << "training on the serving runtime failed to reduce loss: "
        << first << " -> " << last;
}

// ---------------------------------------------------------------------
// Hot swap under load
// ---------------------------------------------------------------------

TEST(TrainingService, HotSwapUnderLoadLosesNothingAndReconciles)
{
    // The acceptance criterion: weight publications hot-swapped into
    // the serving replicas while inference traffic is in flight must
    // lose or corrupt zero requests, and the terminal counters must
    // reconcile exactly — training tasks never leak into the
    // inference accounting.
    InferenceServer server(makeReferenceModel, serverOptions(4, 256));
    TrainingService service(server, makeReferenceModel(),
                            trainingOptions(/*batch=*/4,
                                            /*publish_every=*/1));
    service.start([](std::uint64_t i) { return makeExample(i % 16); });

    // Each producer submits at least kPerProducer requests and stops
    // only after one it submitted once a publication was visible, so
    // traffic always straddles a publish: on a loaded or instrumented
    // host the first training step can otherwise finish after the last
    // request, leaving nothing to swap for. kMaxPerProducer bounds the
    // wait; a service that never publishes fails the checks below.
    constexpr std::size_t kProducers = 2;
    constexpr std::size_t kPerProducer = 60;
    constexpr std::size_t kMaxPerProducer = 20000;
    std::vector<std::vector<std::future<InferResponse>>> futures(
        kProducers);
    std::atomic<std::uint64_t> submitted{0};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; p++) {
        producers.emplace_back([&, p] {
            for (std::size_t i = 0; i < kMaxPerProducer; i++) {
                const bool after_publish =
                    server.registry().published() > 0;
                auto sub = server.submit(makeInput(p * kPerProducer + i),
                                         /*stream=*/1);
                if (sub.accepted) {
                    futures[p].push_back(std::move(sub.result));
                    submitted.fetch_add(1);
                }
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                if (i + 1 >= kPerProducer && after_publish)
                    break;
            }
        });
    }
    for (auto &t : producers)
        t.join();

    // Every accepted request completes with a well-formed, finite
    // response — whatever weight version served it.
    std::uint64_t ok = 0;
    for (auto &lane : futures)
        for (auto &f : lane) {
            InferResponse r = f.get();
            if (r.status == RequestStatus::Ok) {
                ok++;
                EXPECT_TRUE(r.output.isFinite());
                EXPECT_EQ(r.output.shape(), Shape{kDim});
                EXPECT_LE(r.modelVersion, server.registry().latestVersion());
            }
        }

    service.stop();
    server.stop();

    EXPECT_GT(service.steps(), 0u) << "training never stepped";
    EXPECT_GT(server.registry().published(), 0u) << "nothing published";
    EXPECT_GT(server.registry().swapsApplied(), 0u)
        << "no replica ever swapped";

    // Exact reconciliation over inference admissions only.
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.admitted, submitted.load());
    EXPECT_EQ(s.admitted,
              s.completed + s.expired + s.failed + s.cancelled + s.shed)
        << "terminal counters do not reconcile";
    EXPECT_EQ(s.completed, ok);
}

TEST(TrainingService, PublishedWeightsChangeServedOutputs)
{
    // A swap must actually change what the replicas serve: after
    // training publishes, the same input produces a different output
    // than the construction weights, stamped with the new version.
    Tensor input = makeInput(0);

    InferenceServer server(makeReferenceModel, serverOptions(2, 64));
    {
        auto sub = server.submit(input);
        ASSERT_TRUE(sub.accepted);
        InferResponse r = sub.result.get();
        ASSERT_EQ(r.status, RequestStatus::Ok);
        EXPECT_EQ(r.modelVersion, 0u);
    }
    const Tensor v0_output = [&] {
        auto sub = server.submit(input);
        return sub.result.get().output;
    }();

    TrainingService service(server, makeReferenceModel(),
                            trainingOptions(/*batch=*/4,
                                            /*publish_every=*/1));
    std::vector<TrainExample> batch;
    for (std::size_t b = 0; b < 4; b++)
        batch.push_back(makeExample(b));
    for (int step = 0; step < 5; step++) {
        const TrainStepOutcome out = service.step(batch);
        ASSERT_EQ(out.tasksFailed, 0u);
        EXPECT_EQ(out.publishedVersion,
                  static_cast<std::uint64_t>(step + 1));
    }

    auto sub = server.submit(input);
    ASSERT_TRUE(sub.accepted);
    InferResponse r = sub.result.get();
    server.stop();
    ASSERT_EQ(r.status, RequestStatus::Ok);
    EXPECT_EQ(r.modelVersion, 5u);
    EXPECT_FALSE(bitwiseEqual(r.output, v0_output))
        << "published weights did not reach the serving replicas";
}

// ---------------------------------------------------------------------
// Version-safe caching across swaps
// ---------------------------------------------------------------------

ServerOptions
cachedServerOptions(std::size_t workers)
{
    ServerOptions opts = serverOptions(workers, 64);
    opts.cache.enabled = true;
    opts.cache.exactCapacity = 64;
    opts.cache.warmCapacity = 64;
    return opts;
}

TEST(TrainingService, SwapInvalidatesExactCacheIdentity)
{
    // The 10.4 regression: the exact-match key must incorporate the
    // live weight version. After a publication the same input is a
    // different solve — a hit on the old entry would serve stale
    // weights forever.
    Tensor input = makeInput(7);
    InferenceServer server(makeReferenceModel, cachedServerOptions(1));
    ASSERT_NE(server.solveCache(), nullptr);

    // Solve + repeat: the repeat must hit.
    server.submit(input).result.get();
    server.submit(input).result.get();
    EXPECT_EQ(server.solveCache()->exactHits(), 1u);
    const Hash128 v0_digest = server.modelDigest();
    ASSERT_TRUE(v0_digest.valid());

    // Publish new weights (the registry path the training service
    // uses), let the replica swap, and repeat the same input: the old
    // entry must NOT serve it.
    auto master = makeReferenceModel();
    master->paramSlots()[0].param->at(0) += 0.5f;
    server.registry().publish(ModelRegistry::capture(*master));
    const Hash128 v1_digest = server.modelDigest();
    ASSERT_TRUE(v1_digest.valid());
    EXPECT_FALSE(v1_digest.hi == v0_digest.hi &&
                 v1_digest.lo == v0_digest.lo)
        << "cache identity ignored the weight version";

    InferResponse r = server.submit(input).result.get();
    EXPECT_EQ(r.status, RequestStatus::Ok);
    EXPECT_EQ(r.modelVersion, 1u);
    EXPECT_EQ(server.solveCache()->exactHits(), 1u)
        << "post-swap request hit a pre-swap cache entry";

    // And the new version builds its own cache identity.
    server.submit(input).result.get();
    EXPECT_EQ(server.solveCache()->exactHits(), 2u);
    server.stop();
}

TEST(TrainingService, PreSwapPendingEntryCannotPublishIntoNewVersion)
{
    // A request admitted (and registered as the single-flight leader)
    // under version v, but solved after the replica swapped to v+1,
    // must not publish its result: its cache key says "v" while its
    // payload was computed at v+1. The clean-solve gate retracts the
    // pending entry instead.
    ServerOptions opts = cachedServerOptions(1);
    opts.startPaused = true;
    Tensor input = makeInput(11);

    InferenceServer server(makeReferenceModel, opts);
    ASSERT_NE(server.solveCache(), nullptr);

    // Admit while paused: the request is stamped with version 0 and
    // becomes the pending leader for its key.
    auto sub = server.submit(input);
    ASSERT_TRUE(sub.accepted);

    // Publish v1 before any worker dispatches.
    auto master = makeReferenceModel();
    master->paramSlots()[0].param->at(0) += 0.5f;
    server.registry().publish(ModelRegistry::capture(*master));

    server.resume();
    InferResponse r = sub.result.get();
    EXPECT_EQ(r.status, RequestStatus::Ok);
    // Solved on the post-swap replica.
    EXPECT_EQ(r.modelVersion, 1u);

    // The same input admitted now (stamped v1) must not find a cached
    // entry — the version-skewed solve was never published.
    InferResponse repeat = server.submit(input).result.get();
    EXPECT_EQ(repeat.status, RequestStatus::Ok);
    EXPECT_EQ(server.solveCache()->exactHits(), 0u)
        << "a version-skewed solve was published into the cache";
    EXPECT_TRUE(bitwiseEqual(repeat.output, r.output))
        << "same weights, same input, different results";
    server.stop();
}

// ---------------------------------------------------------------------
// Yielding to inference at step boundaries
// ---------------------------------------------------------------------

TEST(TrainingService, NoInferenceTrafficMeansNoYields)
{
    InferenceServer server(makeReferenceModel, serverOptions(1, 64));
    TrainingService service(server, makeReferenceModel(),
                            trainingOptions(/*batch=*/4,
                                            /*publish_every=*/1));
    std::vector<TrainExample> batch;
    for (std::size_t b = 0; b < 4; b++)
        batch.push_back(makeExample(b));
    for (int step = 0; step < 3; step++)
        ASSERT_EQ(service.step(batch).tasksFailed, 0u);
    EXPECT_EQ(trainCounter(server, "yields"), 0.0);
    server.stop();
}

TEST(TrainingService, InferenceOvertakesARunningTrainingTask)
{
    // One worker, one long training task, submitted directly so the
    // test sees its response: a request submitted while the task runs
    // (inside a stall before its first step) is served at the task's
    // next step boundary, so it completes while the task still runs.
    // Without the yield it waits out the whole task. The request rides
    // the task's stream with submit()'s defaults, or a later stream:
    // training loses the tie on its own stream too.
    for (const std::uint32_t stream : {0u, 1u}) {
        SCOPED_TRACE("request stream " + std::to_string(stream));
        ScopedFaultPlan stall(FaultPlan{0, {taskStall(20.0)}});
        InferenceServer server(makeSlowModel, serverOptions(1, 64));
        auto master = makeSlowModel();
        std::vector<Tensor> grads(master->paramSlots().size());
        const TrainExample example = makeExample(0);
        TrainTask task;
        task.step = 1;
        task.weights = ModelRegistry::capture(*master);
        task.input = example.input;
        task.target = example.target;
        task.ivp = slowTrainingOptions(/*batch=*/1).ivp;
        task.grads = &grads;
        const auto task_submitted = RuntimeClock::now();
        auto training = server.submitTrainTask(task);
        ASSERT_TRUE(training.accepted);
        while (trainCounter(server, "tasks") == 0.0)
            std::this_thread::yield();

        auto sub = stream == 0 ? server.submit(makeInput(0))
                               : server.submit(makeInput(0), stream);
        const auto request_submitted = RuntimeClock::now();
        ASSERT_TRUE(sub.accepted);
        const InferResponse request = sub.result.get();
        const InferResponse trained = training.result.get();
        EXPECT_EQ(request.status, RequestStatus::Ok);
        EXPECT_EQ(trained.status, RequestStatus::Ok);

        // Compare the server's own completion times, not when this
        // thread wakes: the request's latest possible end against the
        // task's earliest possible end.
        const auto ms = [](double v) {
            return std::chrono::duration_cast<RuntimeClock::duration>(
                std::chrono::duration<double, std::milli>(v));
        };
        EXPECT_LT(request_submitted + ms(request.totalMs),
                  task_submitted + ms(trained.totalMs))
            << "the request waited for the training task to finish";
        EXPECT_EQ(trainCounter(server, "yields"), 1.0);
        server.stop();
    }
}

TEST(TrainingService, TaskAdvancesUnderSustainedPreemptingLoad)
{
    // A producer keeps the queue full of requests that preempt a
    // running task. Each yield point serves one batch and the task
    // then takes a step, so it finishes while the flood goes on.
    ScopedFaultPlan stall(FaultPlan{0, {taskStall(20.0)}});
    InferenceServer server(makeReferenceModel, serverOptions(1, 8));
    TrainingService service(server, makeReferenceModel(),
                            trainingOptions(/*batch=*/1,
                                            /*publish_every=*/0));
    auto training = stepInBackground(server, service, {makeExample(0)});
    std::vector<std::future<InferResponse>> futures;
    const auto give_up = RuntimeClock::now() + std::chrono::seconds(20);
    for (std::uint64_t i = 0;
         training.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready &&
         RuntimeClock::now() < give_up;
         i++) {
        auto sub = server.submit(makeInput(i % 16), /*stream=*/1);
        if (sub.accepted)
            futures.push_back(std::move(sub.result));
        else
            std::this_thread::yield();
    }
    ASSERT_EQ(training.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "the task starved under the flood";
    EXPECT_EQ(training.get().tasksFailed, 0u);
    EXPECT_GT(trainCounter(server, "yields"), 0.0);
    server.stop();
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, RequestStatus::Ok);
}

TEST(TrainingService, YieldedInferenceDoesNotAgeTheTaskForTheWatchdog)
{
    // The task's own time is well below watchdogMs: a stall of a
    // quarter of it before its first step, during which three requests
    // arrive, plus a short solve. The inference it yields to, one
    // request at each of three step boundaries, totals well over
    // watchdogMs: each request stalls for 60% of it. The watchdog times
    // each yielded batch on its own and the paused task not at all, so
    // nothing trips.
    constexpr double kWatchdogMs = 200.0;
    ServerOptions opts = serverOptions(1, 64);
    opts.degrade.watchdogMs = kWatchdogMs;
    FaultPlan plan;
    plan.faults.push_back(taskStall(0.25 * kWatchdogMs));
    plan.faults.push_back({"worker.stall", FaultKind::Stall, /*firstHit=*/0,
                           /*count=*/3, /*stallMs=*/0.6 * kWatchdogMs});
    ScopedFaultPlan scoped(plan);

    InferenceServer server(makeReferenceModel, opts);
    TrainingService service(server, makeReferenceModel(),
                            trainingOptions(/*batch=*/1,
                                            /*publish_every=*/0));
    auto training = stepInBackground(server, service, {makeExample(0)});
    std::vector<std::future<InferResponse>> futures;
    for (std::uint64_t i = 0; i < 3; i++) {
        auto sub = server.submit(makeInput(i), /*stream=*/1);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, RequestStatus::Ok);

    const TrainStepOutcome out = training.get();
    EXPECT_EQ(out.tasksFailed, 0u);
    EXPECT_EQ(out.tasksRetried, 0u) << "the watchdog tripped the task";
    EXPECT_EQ(trainCounter(server, "yields"), 3.0);
    server.stop();
    EXPECT_EQ(server.metrics().summary().watchdogTrips, 0u);
}

TEST(TrainingService, StopWithInferenceQueuedBehindATaskReconciles)
{
    // Shutdown while a training task runs (inside a stall before its
    // first step) with inference queued behind it, on the task's
    // stream 0 and on stream 1: all of it preempts the task. Whether
    // stop drains it (served inside the task or after it) or cancels
    // it, every admitted request ends exactly once.
    for (const bool drain : {true, false}) {
        ScopedFaultPlan stall(FaultPlan{0, {taskStall(20.0, 2)}});
        InferenceServer server(makeSlowModel, serverOptions(1, 256));
        TrainingService service(server, makeSlowModel(),
                                slowTrainingOptions(/*batch=*/2));
        auto training = stepInBackground(server, service,
                                         {makeExample(0), makeExample(1)});
        std::vector<std::future<InferResponse>> futures;
        for (std::uint64_t i = 0; i < 32; i++) {
            auto sub = server.submit(makeInput(i),
                                     /*stream=*/static_cast<std::uint32_t>(
                                         i % 2));
            ASSERT_TRUE(sub.accepted);
            futures.push_back(std::move(sub.result));
        }
        server.stop(drain);
        std::uint64_t ok = 0;
        for (auto &f : futures)
            ok += f.get().status == RequestStatus::Ok ? 1 : 0;
        training.get();

        const MetricsSummary s = server.metrics().summary();
        EXPECT_EQ(s.admitted, futures.size()) << "drain=" << drain;
        EXPECT_EQ(s.admitted,
                  s.completed + s.expired + s.failed + s.cancelled + s.shed)
            << "drain=" << drain;
        EXPECT_EQ(s.completed, ok) << "drain=" << drain;
        if (drain) {
            EXPECT_EQ(s.completed, futures.size());
        }
    }
}

TEST(TrainingService, WatchdogTakeoverLeavesTheTaskToItsRetry)
{
    // A training task stalls past watchdogMs: the watchdog fails it and
    // the service retries it on the other worker. The stalled attempt
    // wakes long after its task has been retried and reused by the
    // next step, and must neither read nor write that task again. The
    // two steps' gradients equal a run without the fault.
    constexpr std::size_t kBatch = 4;
    const auto stepBatch = [](int step) {
        std::vector<TrainExample> batch;
        for (std::size_t b = 0; b < kBatch; b++)
            batch.push_back(
                makeExample(static_cast<std::uint64_t>(step) * kBatch + b));
        return batch;
    };
    const auto runSteps = [&](const ServerOptions &opts) {
        InferenceServer server(makeReferenceModel, opts);
        TrainingService service(server, makeReferenceModel(),
                                trainingOptions(kBatch,
                                                /*publish_every=*/0));
        std::vector<TrainStepOutcome> outcomes;
        for (int step = 0; step < 2; step++)
            outcomes.push_back(service.step(stepBatch(step)));
        server.stop();
        EXPECT_EQ(server.metrics().summary().admitted, 0u);
        return std::make_pair(outcomes,
                              server.metrics().summary().watchdogTrips);
    };

    const auto [reference, no_trips] = runSteps(serverOptions(2, 64));
    EXPECT_EQ(no_trips, 0u);

    ServerOptions opts = serverOptions(2, 64);
    opts.degrade.watchdogMs = 50.0;
    ScopedFaultPlan stall(FaultPlan{0, {taskStall(300.0)}});
    const auto [faulted, trips] = runSteps(opts);

    EXPECT_EQ(trips, 1u);
    EXPECT_EQ(faulted[0].tasksRetried, 1u) << "the stalled attempt";
    EXPECT_EQ(faulted[1].tasksRetried, 0u);
    for (int step = 0; step < 2; step++) {
        EXPECT_EQ(faulted[step].tasksFailed, 0u) << "step " << step;
        EXPECT_EQ(faulted[step].gradDigest.hi, reference[step].gradDigest.hi)
            << "step " << step;
        EXPECT_EQ(faulted[step].gradDigest.lo, reference[step].gradDigest.lo)
            << "step " << step;
    }
}

// ---------------------------------------------------------------------
// Accounting separation
// ---------------------------------------------------------------------

TEST(TrainingService, TrainingBypassesInferenceMetrics)
{
    InferenceServer server(makeReferenceModel, serverOptions(2, 64));
    TrainingService service(server, makeReferenceModel(),
                            trainingOptions(/*batch=*/4,
                                            /*publish_every=*/1));
    std::vector<TrainExample> batch;
    for (std::size_t b = 0; b < 4; b++)
        batch.push_back(makeExample(b));
    service.step(batch);

    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.admitted, 0u) << "gradient tasks leaked into admissions";
    EXPECT_EQ(s.completed, 0u) << "gradient tasks leaked into completions";

    const StatGroup train = service.snapshotStats();
    EXPECT_EQ(train.get("train.steps"), 1.0);
    EXPECT_EQ(train.get("train.tasks"), 4.0);
    EXPECT_EQ(train.get("train.task_failures"), 0.0);

    // The server's exposition carries the model/train counter families.
    const std::string text = server.metricsText();
    EXPECT_NE(text.find("enode_model_published 1"), std::string::npos)
        << text;
    EXPECT_NE(text.find("enode_train_tasks 4"), std::string::npos) << text;
    server.stop();
}

} // namespace
} // namespace enode
