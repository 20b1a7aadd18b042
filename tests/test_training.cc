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
#include <thread>
#include <vector>

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

// ---------------------------------------------------------------------
// Model registry
// ---------------------------------------------------------------------

TEST(ModelRegistry, SeedPublishApplyRoundtrip)
{
    auto a = makeReferenceModel();
    auto b = makeReferenceModel();

    ModelRegistry registry(/*historyCapacity=*/2);
    registry.seed(*a);
    EXPECT_EQ(registry.latestVersion(), 0u);
    EXPECT_EQ(registry.latest()->version, 0u);

    // Perturb a's weights, publish, and apply the snapshot to b: b must
    // become bitwise identical to a.
    auto slots_a = a->paramSlots();
    slots_a[0].param->at(0) += 1.0f;
    const std::uint64_t v1 = registry.publish(*a);
    EXPECT_EQ(v1, 1u);
    EXPECT_EQ(registry.latestVersion(), 1u);
    EXPECT_EQ(registry.published(), 1u);

    ModelRegistry::applyTo(*registry.latest(), *b);
    auto slots_b = b->paramSlots();
    ASSERT_EQ(slots_a.size(), slots_b.size());
    for (std::size_t s = 0; s < slots_a.size(); s++)
        EXPECT_TRUE(bitwiseEqual(*slots_a[s].param, *slots_b[s].param))
            << "slot " << s << " diverged after applyTo";

    // Distinct weights -> distinct params digests; same weights -> same.
    EXPECT_NE(registry.at(0)->paramsDigest.hi,
              registry.at(1)->paramsDigest.hi);
    const auto recapture = ModelRegistry::capture(*a, 99);
    EXPECT_EQ(recapture->paramsDigest.hi,
              registry.at(1)->paramsDigest.hi);
    EXPECT_EQ(recapture->paramsDigest.lo,
              registry.at(1)->paramsDigest.lo);
}

TEST(ModelRegistry, HistoryEvictsOldestBeyondCapacity)
{
    auto model = makeReferenceModel();
    ModelRegistry registry(/*historyCapacity=*/2);
    registry.seed(*model);
    registry.publish(*model); // v1
    registry.publish(*model); // v2 -> v0 evicted
    EXPECT_EQ(registry.latestVersion(), 2u);
    EXPECT_EQ(registry.at(0), nullptr);
    ASSERT_NE(registry.at(1), nullptr);
    ASSERT_NE(registry.at(2), nullptr);
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
    constexpr std::size_t kBatch = 4;
    constexpr int kSteps = 3;

    std::vector<Hash128> reference_digests;
    Hash128 reference_weights;
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
        InferenceServer server(makeReferenceModel,
                               serverOptions(workers, 64));
        TrainingService service(server, makeReferenceModel(),
                                trainingOptions(kBatch,
                                                /*publish_every=*/0));
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
            ModelRegistry::capture(service.master(), 0)->paramsDigest;
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
    server.registry().publish(*master);
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
    server.registry().publish(*master);

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
