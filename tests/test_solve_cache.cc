/**
 * @file
 * Two-tier cross-solve cache: content hashing, exact-dedup storage with
 * single-flight and LRU bounds, dt-schedule warm-starting, the
 * StepController::reset() repeatability contract the warm tier depends
 * on, and the serving-runtime integration (bitwise exact hits,
 * concurrent dedup, warm solves within tolerance, chaos/watchdog
 * non-poisoning). Built and run under ASan/UBSan and TSan in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/rng.h"
#include "ode/step_control.h"
#include "ode/warm_start.h"
#include "runtime/inference_server.h"
#include "runtime/solve_cache.h"
#include "tensor/hash.h"

namespace enode {
namespace {

constexpr std::uint64_t kSeed = 20240606;
constexpr std::size_t kDim = 6;

std::unique_ptr<NodeModel>
makeReferenceModel()
{
    Rng rng(kSeed);
    return NodeModel::makeMlp(/*num_layers=*/2, kDim, /*hidden=*/24,
                              /*f_depth=*/1, rng);
}

/** The reference model with one weight moved: a second publication. */
std::unique_ptr<NodeModel>
makeRetrainedModel()
{
    auto model = makeReferenceModel();
    model->paramSlots()[0].param->at(0) += 0.5f;
    return model;
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

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       a.numel() * sizeof(float)) == 0;
}

ServerOptions
cachedServerOptions(std::size_t workers, std::size_t capacity,
                    bool paused = false, std::size_t exact_cap = 64,
                    std::size_t warm_cap = 0)
{
    ServerOptions opts;
    opts.numWorkers = workers;
    opts.queueCapacity = capacity;
    opts.ivp = servingOptions();
    opts.startPaused = paused;
    opts.cache.enabled = true;
    opts.cache.exactCapacity = exact_cap;
    opts.cache.warmCapacity = warm_cap;
    // Wide quantization bucket so the warm tests' perturbed inputs
    // deterministically land in the seed input's bucket.
    opts.cache.signatureQuantum = 0.25;
    return opts;
}

// ---------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------

TEST(TensorHash, DeterministicAndSensitive)
{
    const Tensor a = makeInput(0);
    Tensor b(a.shape());
    b.copyFrom(a);
    EXPECT_EQ(hashTensor(a), hashTensor(a));
    EXPECT_EQ(hashTensor(a), hashTensor(b));
    EXPECT_TRUE(hashTensor(a).valid());

    // One-ULP flip in one element must change the digest.
    b.data()[2] = std::nextafter(b.data()[2], 1e9f);
    EXPECT_NE(hashTensor(a), hashTensor(b));
}

TEST(TensorHash, ShapeIsPartOfTheDigest)
{
    Rng rng(kSeed);
    Tensor flat = Tensor::randn(Shape{6}, rng, 1.0f);
    Tensor grid(Shape{2, 3});
    std::memcpy(grid.data(), flat.data(), 6 * sizeof(float));
    // Same bytes, different logical shape: distinct keys.
    EXPECT_NE(hashTensor(flat), hashTensor(grid));
}

TEST(TensorHash, CoarseSignatureBucketsNearbyInputs)
{
    const Tensor a = makeInput(1);
    Tensor near(a.shape());
    near.copyFrom(a);
    near.data()[0] += 1e-4f;
    Tensor far(a.shape());
    for (std::size_t i = 0; i < far.numel(); i++)
        far.data()[i] = a.data()[i] * 3.0f + 2.0f;

    const double quantum = 0.25;
    EXPECT_EQ(coarseSignature(a, quantum), coarseSignature(near, quantum));
    EXPECT_NE(coarseSignature(a, quantum), coarseSignature(far, quantum));
    // Exact keys still tell the near pair apart.
    EXPECT_NE(hashTensor(a), hashTensor(near));
}

TEST(TensorHash, CoarseSignatureScreensNonFiniteInputs)
{
    // llround on a non-finite (or int64-overflowing) moment is
    // unspecified; such inputs must map to the "no signature" sentinel,
    // not a platform-dependent bucket.
    const double quantum = 0.25;
    Tensor nan_input = makeInput(3);
    nan_input.data()[1] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(coarseSignature(nan_input, quantum), 0u);

    Tensor inf_input = makeInput(3);
    inf_input.data()[0] = std::numeric_limits<float>::infinity();
    EXPECT_EQ(coarseSignature(inf_input, quantum), 0u);

    Tensor huge(Shape{kDim});
    for (std::size_t i = 0; i < huge.numel(); i++)
        huge.data()[i] = 1e30f; // finite mean, bucket index > 2^63
    EXPECT_EQ(coarseSignature(huge, quantum), 0u);

    EXPECT_NE(coarseSignature(makeInput(3), quantum), 0u);
}

TEST(TensorHash, SizedUpdatesSeparateAdjacentVariableFields)
{
    // An empty variable-length field absorbs nothing on its own, so
    // without the length prefix the neighbouring word would slide into
    // its position and alias a different logical input.
    StreamHasher a;
    a.updateSized(nullptr, 0);
    a.update(std::uint64_t{42});
    StreamHasher b;
    b.update(std::uint64_t{42});
    b.updateSized(nullptr, 0);
    EXPECT_NE(a.digest(), b.digest());

    // Moving a byte across a field boundary changes the digest.
    StreamHasher c;
    c.updateSized("ab", 2);
    c.updateSized("c", 1);
    StreamHasher d;
    d.updateSized("a", 1);
    d.updateSized("bc", 2);
    EXPECT_NE(c.digest(), d.digest());
}

// ---------------------------------------------------------------------
// SolveCache storage semantics (no server)
// ---------------------------------------------------------------------

CacheOptions
unitCacheOptions(std::size_t exact_cap = 8, std::size_t warm_cap = 8)
{
    CacheOptions opts;
    opts.enabled = true;
    opts.exactCapacity = exact_cap;
    opts.warmCapacity = warm_cap;
    opts.shards = 2;
    return opts;
}

QueueEntry
makeEntry(const Hash128 &key)
{
    QueueEntry entry;
    entry.request.cacheKey = key;
    entry.request.input = makeInput(99);
    return entry;
}

TEST(SolveCache, PublishedValueIsServedBitwise)
{
    SolveCache cache(unitCacheOptions());
    const Tensor input = makeInput(2);
    const Hash128 key = hashTensor(input);

    // The miss registers its caller as the key's owner, so an identical
    // lookup before the publish attaches instead of owning a second
    // solve.
    Tensor out;
    QueueEntry owner = makeEntry(key);
    EXPECT_EQ(cache.lookupOrAttach(key, owner, out),
              SolveCache::Lookup::Owner);
    QueueEntry twin = makeEntry(key);
    EXPECT_EQ(cache.lookupOrAttach(key, twin, out),
              SolveCache::Lookup::Attached);
    EXPECT_EQ(cache.exactSize(), 1u);

    EXPECT_EQ(cache.publishSuccess(key, input).size(), 1u);

    Tensor hit;
    QueueEntry again = makeEntry(key);
    EXPECT_EQ(cache.lookupOrAttach(key, again, hit),
              SolveCache::Lookup::Hit);
    EXPECT_TRUE(bitwiseEqual(hit, input));
    EXPECT_EQ(cache.exactHits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.singleFlightWaits(), 1u);
    EXPECT_EQ(cache.inserts(), 1u);
    EXPECT_EQ(cache.exactSize(), 1u);
}

TEST(SolveCache, SingleFlightFollowersReleasedOnSuccess)
{
    SolveCache cache(unitCacheOptions());
    const Tensor value = makeInput(3);
    const Hash128 key = hashTensor(value);
    Tensor out;
    QueueEntry owner = makeEntry(key);
    ASSERT_EQ(cache.lookupOrAttach(key, owner, out),
              SolveCache::Lookup::Owner);

    QueueEntry follower = makeEntry(key);
    follower.request.id = 42;
    auto future = follower.promise.get_future();
    EXPECT_EQ(cache.lookupOrAttach(key, follower, out),
              SolveCache::Lookup::Attached);
    EXPECT_EQ(cache.singleFlightWaits(), 1u);

    std::vector<QueueEntry> released = cache.publishSuccess(key, value);
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0].request.id, 42u);
    // The follower's promise travelled with the entry.
    released[0].promise.set_value(InferResponse{});
    EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
}

TEST(SolveCache, FailureRetractsPendingButKeepsReadyValues)
{
    SolveCache cache(unitCacheOptions());
    const Tensor value = makeInput(4);
    const Hash128 pending_key = hashTensor(value);
    const Hash128 ready_key{pending_key.hi + 1, pending_key.lo + 1};
    const auto lookup = [&](const Hash128 &key, Tensor &out) {
        QueueEntry entry = makeEntry(key);
        return cache.lookupOrAttach(key, entry, out);
    };

    Tensor out;
    ASSERT_EQ(lookup(ready_key, out), SolveCache::Lookup::Owner);
    cache.publishSuccess(ready_key, value);

    ASSERT_EQ(lookup(pending_key, out), SolveCache::Lookup::Owner);
    QueueEntry follower = makeEntry(pending_key);
    follower.request.id = 7;
    ASSERT_EQ(cache.lookupOrAttach(pending_key, follower, out),
              SolveCache::Lookup::Attached);

    std::vector<QueueEntry> returned = cache.publishFailure(pending_key);
    ASSERT_EQ(returned.size(), 1u);
    EXPECT_EQ(returned[0].request.id, 7u);
    EXPECT_EQ(cache.exactSize(), 1u);
    // The retracted key is free: the next lookup owns it afresh.
    EXPECT_EQ(lookup(pending_key, out), SolveCache::Lookup::Owner);

    // A late failure for an already-ready key is a no-op.
    EXPECT_TRUE(cache.publishFailure(ready_key).empty());
    EXPECT_EQ(lookup(ready_key, out), SolveCache::Lookup::Hit);
    EXPECT_TRUE(bitwiseEqual(out, value));
}

TEST(SolveCache, LruEvictionBoundsReadyEntriesAndSparesPending)
{
    // Single shard so the LRU order is global and deterministic.
    CacheOptions opts = unitCacheOptions(/*exact_cap=*/3);
    opts.shards = 1;
    SolveCache cache(opts);
    const Tensor value = makeInput(5);
    const auto lookup = [&](const Hash128 &key) {
        QueueEntry entry = makeEntry(key);
        Tensor out;
        return cache.lookupOrAttach(key, entry, out);
    };

    for (std::uint64_t i = 0; i < 5; i++) {
        const Hash128 key{0x1000 + i, 0x2000 + i};
        ASSERT_EQ(lookup(key), SolveCache::Lookup::Owner);
        cache.publishSuccess(key, value);
    }
    EXPECT_EQ(cache.exactSize(), 3u);
    EXPECT_EQ(cache.evictions(), 2u);
    // The hot end is retained, so the first two published left.
    for (std::uint64_t i = 2; i < 5; i++)
        EXPECT_EQ(lookup(Hash128{0x1000 + i, 0x2000 + i}),
                  SolveCache::Lookup::Hit);

    // Pending entries hold follower promises and are never evicted,
    // even with the shard over budget — the ready values are the ones
    // sacrificed to make room.
    for (std::uint64_t i = 0; i < 5; i++)
        ASSERT_EQ(lookup(Hash128{0x9000 + i, 0x9900 + i}),
                  SolveCache::Lookup::Owner);
    EXPECT_EQ(cache.exactSize(), 5u);
    for (std::uint64_t i = 0; i < 5; i++)
        EXPECT_EQ(lookup(Hash128{0x9000 + i, 0x9900 + i}),
                  SolveCache::Lookup::Attached);
    for (std::uint64_t i = 0; i < 5; i++)
        EXPECT_EQ(
            cache.publishFailure(Hash128{0x9000 + i, 0x9900 + i}).size(),
            1u);
    EXPECT_EQ(cache.exactSize(), 0u);
}

TEST(SolveCache, WarmTierRoundTripsRecordedSchedules)
{
    SolveCache cache(unitCacheOptions());
    FixedFactorController inner;
    WarmStartController recorder(&inner);
    recorder.beginSolve(nullptr);
    recorder.reset(0.1);
    recorder.accepted(0.1, 5e-5, 1e-4, true);
    recorder.accepted(0.2, 5e-5, 1e-4, true);
    recorder.reset(0.1); // layer boundary: new segment
    recorder.accepted(0.4, 5e-5, 1e-4, true);

    const std::uint64_t sig = 0xDEADBEEFull;
    cache.warmInsert(sig, recorder);
    DtSchedule out;
    ASSERT_TRUE(cache.warmLookup(sig, out));
    ASSERT_EQ(out.layers.size(), 2u);
    EXPECT_EQ(out.layers[0], (std::vector<double>{0.1, 0.2}));
    EXPECT_EQ(out.layers[1], (std::vector<double>{0.4}));
    EXPECT_EQ(cache.warmHits(), 1u);
    EXPECT_EQ(cache.warmSize(), 1u);

    // Signature 0 is the "no signature" sentinel on both paths.
    cache.warmInsert(0, recorder);
    EXPECT_FALSE(cache.warmLookup(0, out));
    EXPECT_EQ(cache.warmSize(), 1u);
    EXPECT_FALSE(cache.warmLookup(sig + 1, out));
}

// ---------------------------------------------------------------------
// StepController::reset() contract — the property the warm tier's
// bitwise claims lean on: after reset(initial_dt), a controller must
// reproduce its trial sequence exactly.
// ---------------------------------------------------------------------

/** Fixed accept/reject script; returns every dt the controller chose. */
std::vector<double>
driveScriptedSolve(StepController &controller)
{
    constexpr double kEps = 1e-4;
    std::vector<double> dts;
    controller.reset(0.05);
    for (int point = 0; point < 6; point++) {
        double dt = controller.initialDt();
        dts.push_back(dt);
        const bool rejected_first = (point == 1 || point == 4);
        if (rejected_first) {
            dt = controller.rejectedDt(dt, 2.5 * kEps, kEps);
            dts.push_back(dt);
        }
        controller.accepted(dt, 0.4 * kEps, kEps, !rejected_first);
    }
    controller.reset(0.05); // second integration layer
    for (int point = 0; point < 3; point++) {
        const double dt = controller.initialDt();
        dts.push_back(dt);
        controller.accepted(dt, 0.9 * kEps, kEps, true);
    }
    return dts;
}

TEST(StepControllerContract, ResetReproducesTrialSequenceBitwise)
{
    std::vector<std::unique_ptr<StepController>> controllers;
    controllers.push_back(std::make_unique<FixedFactorController>());
    controllers.push_back(std::make_unique<ConstantInitController>());
    controllers.push_back(
        std::make_unique<PressTeukolskyController>(/*order=*/3));
    controllers.push_back(std::make_unique<PiController>(/*order=*/3));
    for (auto &controller : controllers) {
        const std::vector<double> first = driveScriptedSolve(*controller);
        const std::vector<double> second = driveScriptedSolve(*controller);
        ASSERT_EQ(first.size(), second.size()) << controller->name();
        EXPECT_EQ(std::memcmp(first.data(), second.data(),
                              first.size() * sizeof(double)),
                  0)
            << controller->name()
            << ": reset() did not restore the trial sequence";
    }
}

TEST(StepControllerContract, WarmWrapperWithoutReplayIsTransparent)
{
    // The decorator must be invisible when it has nothing to replay:
    // same inner state evolution, same proposals, bit for bit.
    PiController bare(/*order=*/3);
    PiController inner(/*order=*/3);
    WarmStartController wrapped(&inner);
    wrapped.beginSolve(nullptr);

    const std::vector<double> reference = driveScriptedSolve(bare);
    const std::vector<double> decorated = driveScriptedSolve(wrapped);
    ASSERT_EQ(reference.size(), decorated.size());
    EXPECT_EQ(std::memcmp(reference.data(), decorated.data(),
                          reference.size() * sizeof(double)),
              0);
    EXPECT_EQ(wrapped.replayedPoints(), 0u);
}

TEST(StepControllerContract, WarmReplayFallsBackOnFirstRejection)
{
    constexpr double kEps = 1e-4;
    DtSchedule schedule;
    schedule.layers = {{0.2, 0.3}, {0.5}};

    FixedFactorController inner;
    WarmStartController warm(&inner);
    warm.beginSolve(&schedule);
    warm.reset(0.05);

    // Replay proposes the cached dts as first trials.
    EXPECT_DOUBLE_EQ(warm.initialDt(), 0.2);
    warm.accepted(0.2, 0.5 * kEps, kEps, true);
    EXPECT_EQ(warm.replayedPoints(), 1u);
    EXPECT_DOUBLE_EQ(warm.initialDt(), 0.3);

    // First rejected replay trial kills the replay for the rest of the
    // solve; the inner adaptive controller owns every later proposal.
    const double retry = warm.rejectedDt(0.3, 3.0 * kEps, kEps);
    EXPECT_DOUBLE_EQ(retry, 0.15); // FixedFactor halves
    EXPECT_TRUE(warm.replayRejected());
    warm.accepted(retry, 0.5 * kEps, kEps, false);

    warm.reset(0.05); // layer 2: replay stays dead after a rejection
    EXPECT_NE(warm.initialDt(), 0.5);
    EXPECT_EQ(warm.replayedPoints(), 1u);

    // The recorder still captured the actually-accepted schedule.
    DtSchedule recorded;
    warm.harvestRecorded(recorded);
    ASSERT_EQ(recorded.layers.size(), 2u);
    EXPECT_EQ(recorded.layers[0], (std::vector<double>{0.2, 0.15}));
}

// ---------------------------------------------------------------------
// Serving-runtime integration
// ---------------------------------------------------------------------

TEST(CachedServing, ExactHitIsBitwiseIdenticalAndSkipsTheSolve)
{
    // A fixed closed-loop list of 64 requests at a given repeat share:
    // request i sends distinct input i % D, D = max(1, round((1 -
    // share) * 64)), so the distinct inputs at a higher share are a
    // subset of those at a lower one. Each distinct input is solved
    // once; every repeat is an exact hit that runs no solver step and
    // returns the solve's bytes, which are the fresh-solve bytes. The
    // f evaluations summed over the list therefore never rise with the
    // share, and all-repeat traffic costs one solve.
    constexpr std::size_t kRequests = 64;
    auto model = makeReferenceModel();
    std::uint64_t previous_fevals = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t miss_fevals = 0;
    for (const double share : {0.0, 0.5, 0.9, 1.0}) {
        SCOPED_TRACE("repeat share " + std::to_string(share));
        const std::size_t distinct = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::lround((1.0 - share) * kRequests)));
        InferenceServer server(makeReferenceModel,
                               cachedServerOptions(1, 16));
        std::vector<Tensor> solves; // one per distinct input
        std::uint64_t solved = 0, fevals = 0;
        for (std::size_t i = 0; i < kRequests; i++) {
            const std::size_t k = i % distinct;
            const Tensor input = makeInput(10 + k);
            auto sub = server.submit(input);
            ASSERT_TRUE(sub.accepted);
            InferResponse r = sub.result.get();
            ASSERT_EQ(r.status, RequestStatus::Ok);
            solved += r.cacheHit ? 0 : 1;
            fevals += r.stats.fEvals;
            if (i < distinct) {
                FixedFactorController controller;
                const Tensor reference =
                    model->forward(input, server.tableau(), controller,
                                   servingOptions())
                        .output;
                EXPECT_TRUE(bitwiseEqual(r.output, reference))
                    << "request " << i;
                solves.push_back(std::move(r.output));
                continue;
            }
            EXPECT_TRUE(r.cacheHit) << "request " << i;
            EXPECT_EQ(r.stats.fEvals, 0u) << "request " << i;
            EXPECT_TRUE(bitwiseEqual(r.output, solves[k]))
                << "request " << i;
        }
        server.stop();

        const std::uint64_t repeats = kRequests - distinct;
        EXPECT_EQ(solved, distinct);
        ASSERT_NE(server.solveCache(), nullptr);
        EXPECT_EQ(server.solveCache()->exactHits(), repeats);
        EXPECT_EQ(server.solveCache()->inserts(), distinct);
        EXPECT_TRUE(server.modelDigest().valid());
        const MetricsSummary s = server.metrics().summary();
        EXPECT_EQ(s.completed, kRequests);
        EXPECT_EQ(s.cacheHits, repeats);
        const std::string text = server.metricsText();
        EXPECT_NE(text.find("enode_cache_exact_hit " +
                            std::to_string(repeats) + "\n"),
                  std::string::npos);
        EXPECT_NE(text.find("enode_requests_cache_hits " +
                            std::to_string(repeats) + "\n"),
                  std::string::npos);

        EXPECT_LE(fevals, previous_fevals);
        previous_fevals = fevals;
        if (share == 0.0)
            miss_fevals = fevals;
    }
    EXPECT_LE(5 * previous_fevals, miss_fevals)
        << "all-repeat traffic cost more than a fifth of all-miss";
}

TEST(CachedServing, ConcurrentIdenticalRequestsCostOneSolve)
{
    const std::size_t n = 8;
    InferenceServer server(makeReferenceModel,
                           cachedServerOptions(2, 32, /*paused=*/true));
    const Tensor input = makeInput(11);

    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < n; i++) {
        auto sub = server.submit(input);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.resume();

    std::vector<InferResponse> responses;
    for (auto &future : futures)
        responses.push_back(future.get());
    server.stop();

    std::size_t solved = 0;
    for (const InferResponse &r : responses) {
        ASSERT_EQ(r.status, RequestStatus::Ok);
        EXPECT_TRUE(bitwiseEqual(r.output, responses[0].output));
        if (!r.cacheHit)
            solved++;
    }
    // One owner solved; every other submission attached to the owner's
    // pending entry at admission.
    EXPECT_EQ(solved, 1u);
    EXPECT_EQ(server.solveCache()->singleFlightWaits(), n - 1);
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.admitted, n);
    EXPECT_EQ(s.completed, n);
    EXPECT_EQ(s.cacheHits, n - 1);
}

TEST(CachedServing, RacingIdenticalSubmitsSolveEachKeyOnce)
{
    // Producers released together race on every key: each submits the
    // same inputs in the same order. The admission lookup decides each
    // request once, under its shard lock: a hit, a follower, or the
    // key's only owner. However the submits interleave, each key is
    // therefore solved exactly once. Repeated under TSan in CI.
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kInputs = 400;
    constexpr std::size_t kRounds = 5;
    for (std::size_t round = 0; round < kRounds; round++) {
        SCOPED_TRACE("round " + std::to_string(round));
        ServerOptions opts =
            cachedServerOptions(2, kThreads * kInputs, /*paused=*/false,
                                /*exact_cap=*/kThreads * kInputs);
        opts.maxBatch = 4;
        InferenceServer server(makeReferenceModel, opts);
        std::vector<Tensor> inputs;
        for (std::size_t k = 0; k < kInputs; k++)
            inputs.push_back(makeInput(1000 + round * kInputs + k));

        std::latch start(kThreads);
        std::vector<std::vector<InferenceServer::Submission>> subs(kThreads);
        std::vector<std::thread> producers;
        for (std::size_t t = 0; t < kThreads; t++) {
            producers.emplace_back([&, t] {
                start.arrive_and_wait();
                for (const Tensor &input : inputs)
                    subs[t].push_back(server.submit(input));
            });
        }
        for (std::thread &producer : producers)
            producer.join();

        std::vector<std::size_t> solves(kInputs, 0);
        for (std::size_t t = 0; t < kThreads; t++) {
            for (std::size_t k = 0; k < kInputs; k++) {
                ASSERT_TRUE(subs[t][k].accepted);
                const InferResponse r = subs[t][k].result.get();
                ASSERT_EQ(r.status, RequestStatus::Ok);
                solves[k] += r.cacheHit ? 0 : 1;
            }
        }
        server.stop();
        std::size_t twice = 0;
        for (std::size_t k = 0; k < kInputs; k++) {
            EXPECT_GE(solves[k], 1u) << "key " << k;
            twice += solves[k] > 1 ? 1 : 0;
        }
        EXPECT_EQ(twice, 0u) << "keys solved more than once";
        EXPECT_EQ(server.solveCache()->inserts(), kInputs);
    }
}

TEST(CachedServing, WarmStartStaysWithinToleranceAndCutsTrials)
{
    // ConstantInit restarts the stepsize search at a deliberately bad
    // initial dt for every evaluation point, so a replayed schedule has
    // a lot of rejected trials to save.
    ServerOptions opts =
        cachedServerOptions(1, 16, /*paused=*/false, /*exact_cap=*/64,
                            /*warm_cap=*/64);
    opts.ivp.tolerance = 1e-5;
    opts.ivp.initialDt = 0.4;
    InferenceServer server(
        makeReferenceModel, opts,
        [] { return std::make_unique<ConstantInitController>(); });

    const Tensor seed_input = makeInput(12);
    auto cold = server.submit(seed_input);
    ASSERT_TRUE(cold.accepted);
    InferResponse r1 = cold.result.get();
    ASSERT_EQ(r1.status, RequestStatus::Ok);
    EXPECT_FALSE(r1.warmStarted);
    ASSERT_GT(r1.stats.evalPoints, 0u);

    // Statistically similar but bytewise different input: misses the
    // exact tier, hits the warm tier.
    Tensor near(seed_input.shape());
    near.copyFrom(seed_input);
    near.data()[0] += 1e-4f;
    auto warm = server.submit(near);
    ASSERT_TRUE(warm.accepted);
    InferResponse r2 = warm.result.get();
    ASSERT_EQ(r2.status, RequestStatus::Ok);
    EXPECT_FALSE(r2.cacheHit);
    EXPECT_TRUE(r2.warmStarted);
    ASSERT_GT(r2.stats.evalPoints, 0u);

    // The replayed schedule must cut the per-point search cost.
    const double cold_tpp = static_cast<double>(r1.stats.trials) /
                            static_cast<double>(r1.stats.evalPoints);
    const double warm_tpp = static_cast<double>(r2.stats.trials) /
                            static_cast<double>(r2.stats.evalPoints);
    EXPECT_LT(warm_tpp, cold_tpp);

    // Correctness stays with the error test: the warm-started solve of
    // `near` agrees with a cold solve of `near` to solver accuracy.
    ConstantInitController controller;
    auto model = makeReferenceModel();
    const Tensor reference =
        model->forward(near, server.tableau(), controller, opts.ivp)
            .output;
    double diff = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < reference.numel(); i++) {
        const double d = static_cast<double>(r2.output.data()[i]) -
                         static_cast<double>(reference.data()[i]);
        diff += d * d;
        norm += static_cast<double>(reference.data()[i]) *
                static_cast<double>(reference.data()[i]);
    }
    EXPECT_LT(std::sqrt(diff), 1e-2 * (1.0 + std::sqrt(norm)));

    server.stop();
    EXPECT_GE(server.solveCache()->warmHits(), 1u);
    const MetricsSummary s = server.metrics().summary();
    EXPECT_GE(s.warmStarted, 1u);
    EXPECT_GT(s.trialsPerPointCold, 0.0);
    EXPECT_GT(s.trialsPerPointWarm, 0.0);
    EXPECT_LT(s.trialsPerPointWarm, s.trialsPerPointCold);
}

// ---------------------------------------------------------------------
// Chaos: faults must never populate either tier
// ---------------------------------------------------------------------

FaultSpec
corruptSpec(std::uint64_t first_hit, std::uint64_t count)
{
    FaultSpec spec;
    spec.site = "node.feval";
    spec.kind = FaultKind::CorruptNaN;
    spec.firstHit = first_hit;
    spec.count = count;
    return spec;
}

TEST(CachedServingChaos, FaultedSolvesNeverPopulateEitherTier)
{
    setLogLevel(LogLevel::Silent);
    ServerOptions opts =
        cachedServerOptions(1, 16, /*paused=*/false, /*exact_cap=*/64,
                            /*warm_cap=*/64);
    opts.ivp.maxTrialsPerPoint = 4; // poisoned points fail fast
    InferenceServer server(makeReferenceModel, opts);
    const Tensor input = makeInput(13);

    {
        // Persistent NaN corruption: every rung fails, responses are
        // terminal failures.
        FaultPlan plan;
        plan.seed = 5;
        plan.faults.push_back(corruptSpec(
            0, std::numeric_limits<std::uint64_t>::max()));
        ScopedFaultPlan scoped(plan);
        for (int i = 0; i < 3; i++) {
            auto sub = server.submit(input);
            ASSERT_TRUE(sub.accepted);
            InferResponse r = sub.result.get();
            EXPECT_NE(r.status, RequestStatus::Ok);
            EXPECT_FALSE(r.cacheHit);
        }
        EXPECT_EQ(server.solveCache()->inserts(), 0u);
        EXPECT_EQ(server.solveCache()->exactSize(), 0u);
        EXPECT_EQ(server.solveCache()->warmSize(), 0u);
    }
    {
        // Transient corruption that heals through a rejected trial:
        // the response is Ok, but its step sequence is not what a
        // fresh solve would produce, so it must stay uncacheable too.
        FaultPlan plan;
        plan.seed = 6;
        plan.faults.push_back(corruptSpec(1, 1));
        ScopedFaultPlan scoped(plan);
        auto sub = server.submit(input);
        ASSERT_TRUE(sub.accepted);
        InferResponse r = sub.result.get();
        EXPECT_EQ(r.status, RequestStatus::Ok);
        EXPECT_TRUE(r.output.isFinite());
        EXPECT_FALSE(r.cacheHit);
        EXPECT_EQ(server.solveCache()->inserts(), 0u);
        EXPECT_EQ(server.solveCache()->warmSize(), 0u);
    }
    setLogLevel(LogLevel::Info);

    // Disarmed, the same input solves clean, caches, and matches the
    // reference bit for bit — the faults left no residue.
    auto sub = server.submit(input);
    ASSERT_TRUE(sub.accepted);
    InferResponse r = sub.result.get();
    ASSERT_EQ(r.status, RequestStatus::Ok);
    EXPECT_FALSE(r.cacheHit);
    FixedFactorController controller;
    auto model = makeReferenceModel();
    const Tensor reference =
        model->forward(input, server.tableau(), controller, opts.ivp)
            .output;
    EXPECT_TRUE(bitwiseEqual(r.output, reference));
    server.stop();
    EXPECT_EQ(server.solveCache()->exactSize(), 1u);
    EXPECT_EQ(server.solveCache()->warmSize(), 1u);

    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.completed + s.failed + s.expired + s.cancelled,
              s.admitted);
}

TEST(CachedServingChaos, PublishFaultRedispatchesSingleFlightFollowers)
{
    setLogLevel(LogLevel::Silent);
    // One worker, every request staged before any dispatch: the first
    // owns the key, and the identical requests after it attach as its
    // followers.
    constexpr std::size_t kFollowers = 3;
    InferenceServer server(makeReferenceModel,
                           cachedServerOptions(1, 16, /*paused=*/true));
    const Tensor input = makeInput(21);

    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i <= kFollowers; i++) {
        auto sub = server.submit(input);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    EXPECT_EQ(server.solveCache()->singleFlightWaits(), kFollowers);

    // A one-shot fault between the owner's solve and its cache publish:
    // the solve succeeds, the publish is lost. The pending entry must be
    // retracted and the followers re-admitted through the lookup, never
    // parked forever on a publish that will not come: the first owns
    // the key and solves, the rest attach to it. No solve may populate
    // the cache while a plan is armed, so the plan is disarmed once the
    // owner has answered; the stall keeps the new owner's solve from
    // finishing before then.
    std::vector<InferResponse> responses;
    {
        FaultPlan plan;
        plan.seed = 31;
        FaultSpec lost;
        lost.site = "cache.publish";
        lost.kind = FaultKind::Reject;
        lost.firstHit = 0;
        lost.count = 1;
        plan.faults.push_back(lost);
        FaultSpec stall;
        stall.site = "worker.stall";
        stall.kind = FaultKind::Stall;
        stall.firstHit = 1; // the second dispatch: the new owner's
        stall.count = 1;
        stall.stallMs = 500.0;
        plan.faults.push_back(stall);
        ScopedFaultPlan scoped(plan);

        server.resume();
        responses.push_back(futures[0].get());
        EXPECT_EQ(FaultInjector::instance().hits("cache.publish"), 1u);
    }
    for (std::size_t i = 1; i <= kFollowers; i++)
        responses.push_back(futures[i].get());
    setLogLevel(LogLevel::Info);

    // The owner and one re-admitted follower solved; the lost publish
    // cost the followers one solve between them.
    EXPECT_FALSE(responses[0].cacheHit);
    std::size_t solved = 0;
    for (const InferResponse &r : responses) {
        EXPECT_EQ(r.status, RequestStatus::Ok);
        EXPECT_TRUE(bitwiseEqual(r.output, responses[0].output));
        if (!r.cacheHit) {
            solved++;
            EXPECT_GT(r.stats.fEvals, 0u);
        }
    }
    EXPECT_EQ(solved, 2u);
    EXPECT_EQ(server.solveCache()->inserts(), 1u);
    EXPECT_EQ(server.solveCache()->exactSize(), 1u);

    server.stop();
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.admitted, kFollowers + 1);
    EXPECT_EQ(s.completed, kFollowers + 1);
    EXPECT_EQ(s.cacheHits, kFollowers - 1);
    EXPECT_EQ(s.admitted, s.completed + s.expired + s.failed +
                              s.cancelled + s.shed);
}

TEST(CachedServingChaos, WatchdogFailedBatchDoesNotPoisonTheCache)
{
    setLogLevel(LogLevel::Silent);
    ServerOptions opts =
        cachedServerOptions(1, 16, /*paused=*/true, /*exact_cap=*/64,
                            /*warm_cap=*/64);
    opts.maxBatch = 4;
    opts.degrade.watchdogMs = 40.0;
    InferenceServer server(makeReferenceModel, opts);

    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < 4; i++)
        inputs.push_back(makeInput(20 + i));

    {
        // Wedge the first batched dispatch long enough for the
        // watchdog to fail all four samples.
        FaultPlan plan;
        FaultSpec stall;
        stall.site = "worker.stall";
        stall.kind = FaultKind::Stall;
        stall.firstHit = 0;
        stall.count = 1;
        stall.stallMs = 300.0;
        plan.faults.push_back(stall);
        ScopedFaultPlan scoped(plan);

        std::vector<std::future<InferResponse>> futures;
        for (const Tensor &input : inputs) {
            auto sub = server.submit(input);
            ASSERT_TRUE(sub.accepted);
            futures.push_back(std::move(sub.result));
        }
        server.resume();
        for (auto &future : futures) {
            InferResponse r = future.get();
            EXPECT_EQ(r.status, RequestStatus::Failed);
            EXPECT_TRUE(r.output.empty());
        }
    }

    // Wait out the wedged worker (single worker: the probe completes
    // only after it recovers), then confirm nothing the watchdog
    // failed left a value behind: every resubmitted input is a cache
    // *miss* that solves to the correct, finite, reference-exact
    // output.
    auto probe = server.submit(makeInput(30));
    ASSERT_TRUE(probe.accepted);
    EXPECT_EQ(probe.result.get().status, RequestStatus::Ok);

    auto model = makeReferenceModel();
    for (const Tensor &input : inputs) {
        auto sub = server.submit(input);
        ASSERT_TRUE(sub.accepted);
        InferResponse r = sub.result.get();
        ASSERT_EQ(r.status, RequestStatus::Ok);
        EXPECT_FALSE(r.cacheHit);
        FixedFactorController controller;
        const Tensor reference =
            model->forward(input, server.tableau(), controller,
                           servingOptions())
                .output;
        EXPECT_TRUE(bitwiseEqual(r.output, reference));
    }
    server.stop();
    setLogLevel(LogLevel::Info);

    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.watchdogTrips, 1u);
    EXPECT_EQ(s.failed, 4u);
    EXPECT_EQ(s.completed, 5u);
    EXPECT_EQ(s.completed + s.failed + s.expired + s.cancelled,
              s.admitted);
}

TEST(CachedServing, ShutdownCancelsSingleFlightFollowers)
{
    // Followers attached to a pending entry must terminate through the
    // accounting path even when the server never solves the owner.
    InferenceServer server(makeReferenceModel,
                           cachedServerOptions(1, 16, /*paused=*/true));
    const Tensor input = makeInput(14);
    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 4; i++) {
        auto sub = server.submit(input);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.stop(/*drain=*/false);
    for (auto &future : futures) {
        const RequestStatus status = future.get().status;
        EXPECT_TRUE(status == RequestStatus::Cancelled ||
                    status == RequestStatus::Ok);
    }
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.completed + s.failed + s.expired + s.cancelled,
              s.admitted);
}

TEST(CachedServing, ExpiredOwnerDoesNotPoisonRepeatTraffic)
{
    // The owner's pending registration precedes the queue push, so a
    // worker terminating the request uncacheably (here: a deadline that
    // lapsed before dispatch) always finds — and retracts — the
    // registration. The next identical request must then solve for
    // itself instead of attaching to an orphaned pending entry and
    // hanging forever.
    InferenceServer server(makeReferenceModel, cachedServerOptions(1, 16));
    const Tensor input = makeInput(20);

    auto expired = server.submit(
        input, /*stream=*/0,
        RuntimeClock::now() - std::chrono::milliseconds(1));
    ASSERT_TRUE(expired.accepted);
    EXPECT_EQ(expired.result.get().status,
              RequestStatus::DeadlineExceeded);

    auto retry = server.submit(input);
    ASSERT_TRUE(retry.accepted);
    ASSERT_EQ(retry.result.wait_for(std::chrono::seconds(20)),
              std::future_status::ready);
    InferResponse r = retry.result.get();
    EXPECT_EQ(r.status, RequestStatus::Ok);
    EXPECT_FALSE(r.cacheHit);
    server.stop();
}

TEST(CachedServing, ShedOwnerDoesNotPoisonRepeatTraffic)
{
    // The admission lookup registers the owner before overload control
    // decides, so a shed owner retracts its registration. The next
    // identical request then solves instead of attaching to a pending
    // entry that no solve will ever publish.
    ServerOptions opts = cachedServerOptions(1, 16);
    opts.overload.enabled = true;
    InferenceServer server(makeReferenceModel, opts);
    const Tensor input = makeInput(24);

    auto shed = server.submit(
        input, /*stream=*/0,
        RuntimeClock::now() - std::chrono::milliseconds(1));
    ASSERT_TRUE(shed.accepted);
    EXPECT_EQ(shed.result.get().status, RequestStatus::Shed);
    EXPECT_EQ(server.solveCache()->exactSize(), 0u);

    auto retry = server.submit(input);
    ASSERT_TRUE(retry.accepted);
    ASSERT_EQ(retry.result.wait_for(std::chrono::seconds(20)),
              std::future_status::ready);
    InferResponse r = retry.result.get();
    EXPECT_EQ(r.status, RequestStatus::Ok);
    EXPECT_FALSE(r.cacheHit);
    server.stop();
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.admitted, s.completed + s.expired + s.failed +
                              s.cancelled + s.shed);
}

TEST(CachedServing, FollowersAdmittedBeforeAPublicationSolveOnTheNewWeights)
{
    // An owner and three followers are keyed against version 0, then
    // version 1 is published before anything dispatches. The owner
    // solves on the new weights, so it may not publish under its old
    // key: its end is uncacheable and re-admits the followers, each
    // stamped again from the live snapshot. They now share version 1's
    // key, so the first owns it and the other two attach: one more
    // solve serves all three.
    ServerOptions opts = cachedServerOptions(1, 16, /*paused=*/true);
    opts.maxBatch = 4;
    InferenceServer server(makeReferenceModel, opts);
    const Tensor input = makeInput(25);

    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 4; i++) {
        auto sub = server.submit(input);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    EXPECT_EQ(server.solveCache()->singleFlightWaits(), 3u);
    server.registry().publish(ModelRegistry::capture(*makeRetrainedModel()));
    server.resume();

    FixedFactorController controller;
    const Tensor expected =
        makeRetrainedModel()
            ->forward(input, server.tableau(), controller, servingOptions())
            .output;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < 4; i++) {
        const InferResponse r = futures[i].get();
        EXPECT_EQ(r.status, RequestStatus::Ok) << "request " << i;
        EXPECT_EQ(r.modelVersion, 1u) << "request " << i;
        EXPECT_TRUE(bitwiseEqual(r.output, expected)) << "request " << i;
        hits += r.cacheHit ? 1 : 0;
    }
    EXPECT_EQ(hits, 2u);
    // The second owner's clean solve is the one value published.
    EXPECT_EQ(server.solveCache()->inserts(), 1u);
    EXPECT_EQ(server.solveCache()->exactSize(), 1u);
    server.stop();
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.batchesDispatched, 2u);
    EXPECT_EQ(s.cacheHits, 2u);
    EXPECT_EQ(s.completed, 4u);
}

TEST(CachedServing, RacingPublicationsServeEachResponseItsVersionsBytes)
{
    // One thread publishes distinct weight sets while producers submit
    // a few repeated inputs as fast as they can, so a backlog builds,
    // owners keep losing their key to a swap and their followers are
    // stamped again mid-race, often onto a key whose value a newer
    // owner has just published. Whatever answered a request (its own
    // solve, a ready value or a follower delivery), an Ok response
    // carries exactly the bytes forward() computes on the weights of
    // the version it reports. Repeated under TSan in CI.
    constexpr std::size_t kVersions = 21; // v0 plus 20 publications
    constexpr std::size_t kInputs = 8;
    constexpr std::size_t kProducers = 3;
    constexpr std::size_t kPerProducer = 120;
    const auto makeVersion = [](std::size_t v) {
        auto model = makeReferenceModel();
        model->paramSlots()[0].param->at(0) += 0.05f * static_cast<float>(v);
        return model;
    };
    std::vector<Tensor> inputs;
    for (std::size_t k = 0; k < kInputs; k++)
        inputs.push_back(makeInput(300 + k));
    // expected[v][k]: forward() on version v's weights for input k.
    std::vector<std::vector<Tensor>> expected(kVersions);
    for (std::size_t v = 0; v < kVersions; v++) {
        auto model = makeVersion(v);
        for (const Tensor &input : inputs) {
            FixedFactorController controller;
            expected[v].push_back(model
                                      ->forward(input, ButcherTableau::rk23(),
                                                controller, servingOptions())
                                      .output);
        }
    }

    ServerOptions opts =
        cachedServerOptions(2, kProducers * kPerProducer, /*paused=*/false,
                            /*exact_cap=*/kVersions * kInputs);
    opts.maxBatch = 4;
    InferenceServer server([&] { return makeVersion(0); }, opts);

    std::latch start(kProducers + 1);
    std::thread publisher([&] {
        start.arrive_and_wait();
        for (std::size_t v = 1; v < kVersions; v++) {
            server.registry().publish(ModelRegistry::capture(*makeVersion(v)));
            std::this_thread::sleep_for(std::chrono::microseconds(250));
        }
    });
    std::vector<std::vector<InferenceServer::Submission>> subs(kProducers);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; p++) {
        producers.emplace_back([&, p] {
            start.arrive_and_wait();
            for (std::size_t i = 0; i < kPerProducer; i++)
                subs[p].push_back(server.submit(inputs[(p + i) % kInputs]));
        });
    }
    publisher.join();
    for (std::thread &producer : producers)
        producer.join();

    std::uint64_t accepted = 0;
    std::uint64_t ok = 0;
    for (std::size_t p = 0; p < kProducers; p++) {
        for (std::size_t i = 0; i < kPerProducer; i++) {
            InferenceServer::Submission &sub = subs[p][i];
            if (!sub.accepted)
                continue;
            accepted++;
            const InferResponse r = sub.result.get();
            if (r.status != RequestStatus::Ok || r.degraded)
                continue;
            ok++;
            ASSERT_LT(r.modelVersion, kVersions);
            EXPECT_TRUE(bitwiseEqual(
                r.output, expected[r.modelVersion][(p + i) % kInputs]))
                << "producer " << p << " request " << i << " version "
                << r.modelVersion << (r.cacheHit ? " (cache hit)" : "");
        }
    }
    server.stop();
    EXPECT_GT(ok, 0u);
    EXPECT_EQ(server.registry().latestVersion(), kVersions - 1);
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.admitted, accepted);
    EXPECT_EQ(s.admitted,
              s.completed + s.expired + s.failed + s.cancelled + s.shed);
}

TEST(CachedServing, RefusedPushRetractsPendingRegistration)
{
    // Flip side of register-before-push: a refused push must retract
    // the registration it just made, or the key would be poisoned
    // exactly as in the race the ordering fixes.
    InferenceServer server(makeReferenceModel,
                           cachedServerOptions(1, /*capacity=*/1,
                                               /*paused=*/true));
    const Tensor filler = makeInput(21);
    const Tensor victim = makeInput(22);

    auto first = server.submit(filler);
    ASSERT_TRUE(first.accepted);
    auto refused = server.submit(victim); // queue full: push refused
    EXPECT_FALSE(refused.accepted);

    server.resume();
    EXPECT_EQ(first.result.get().status, RequestStatus::Ok);

    // The filler has been popped and completed, so the queue has room;
    // the victim's key must behave as if never seen.
    auto retry = server.submit(victim);
    ASSERT_TRUE(retry.accepted);
    ASSERT_EQ(retry.result.wait_for(std::chrono::seconds(20)),
              std::future_status::ready);
    EXPECT_EQ(retry.result.get().status, RequestStatus::Ok);
    server.stop();
}

TEST(CachedServing, CacheHitPastDeadlineIsDeadlineExceeded)
{
    // A ready-value hit (or follower delivery) whose deadline already
    // lapsed gets the same DeadlineExceeded terminal the queue would
    // have given it — the cached value does not buy back deadline
    // enforcement.
    InferenceServer server(makeReferenceModel, cachedServerOptions(1, 16));
    const Tensor input = makeInput(23);
    auto prime = server.submit(input);
    ASSERT_TRUE(prime.accepted);
    ASSERT_EQ(prime.result.get().status, RequestStatus::Ok);

    auto late = server.submit(
        input, /*stream=*/0,
        RuntimeClock::now() - std::chrono::milliseconds(1));
    ASSERT_TRUE(late.accepted);
    InferResponse r = late.result.get();
    EXPECT_EQ(r.status, RequestStatus::DeadlineExceeded);
    EXPECT_FALSE(r.deadlineMet);
    EXPECT_FALSE(r.cacheHit);
    server.stop();
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.completed + s.failed + s.expired + s.cancelled,
              s.admitted);
}

} // namespace
} // namespace enode
