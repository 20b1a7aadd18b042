/**
 * @file
 * Dynamic micro-batching: the batched adaptive solver's per-sample
 * bitwise equivalence with the solo path, per-sample early exit, the
 * work-conserving collector's ordering (the request queue alone orders
 * every dispatch, across batch boundaries and weight publications),
 * per-sample degradation under seeded faults, and metrics
 * reconciliation. Built and run under ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
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
        calls++;
        out.resize(hs.shape());
        const float *hd = hs.data();
        float *od = out.data();
        for (std::size_t i = 0; i < hs.numel(); i++)
            od[i] = -hd[i] * hd[i] * hd[i];
    }

    std::uint64_t calls = 0; ///< stacked evaluations, any batch size
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
    // evaluations, never a sample's arithmetic. It does share them:
    // the batch makes fewer stacked calls than the solo solves'
    // f evaluations summed.
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

    std::uint64_t solo_fevals = 0;
    for (std::size_t i = 0; i < scales.size(); i++) {
        EXPECT_EQ(batched.status[i], SolveStatus::Ok);
        EXPECT_TRUE(bitwiseEqual(batched.yFinal[i], solo[i].yFinal))
            << "sample " << i << " diverged from its solo solve";
        EXPECT_EQ(batched.stats[i].evalPoints, solo[i].stats.evalPoints);
        EXPECT_EQ(batched.stats[i].trials, solo[i].stats.trials);
        EXPECT_EQ(batched.stats[i].rejected, solo[i].stats.rejected);
        EXPECT_EQ(batched.stats[i].fEvals, solo[i].stats.fEvals);
        solo_fevals += solo[i].stats.fEvals;
    }
    EXPECT_LT(batched_ode.calls, solo_fevals);
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
// Queue: non-blocking collect
// ---------------------------------------------------------------------

TEST(RequestQueue, TryPopTakesOnlyWhatIsQueued)
{
    // collectAhead is the queue's non-blocking take. Against a stream-0
    // training task every inference entry preempts, so it takes
    // whatever is queued: an open empty queue returns false at once (a
    // blocking collect here would hang the test), a queued entry is
    // taken, and a closed, drained queue returns false.
    RequestQueue queue(4, SelectPolicy::LaterStreamFirst);
    TrainTask train;
    QueueEntry task;
    task.request.train = &train;
    CollectedBatch batch;
    EXPECT_FALSE(queue.collectAhead(task, batch));

    QueueEntry entry;
    entry.request.id = 7;
    EXPECT_TRUE(queue.tryPush(entry));
    ASSERT_TRUE(queue.collectAhead(task, batch));
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].request.id, 7u);

    queue.close(/*drain=*/true);
    EXPECT_FALSE(queue.collectAhead(task, batch));
}

TEST(RequestQueue, TrainingPopsAfterEveryInferenceEntryOfItsStreamOrLater)
{
    // Under LaterStreamFirst a training entry loses to every inference
    // entry of its stream or a later one, in all 5040 push orders and
    // whatever the deadlines: one with submit()'s defaults (stream 0,
    // no deadline) included, and a training deadline tighter than any
    // inference one. What collectAhead takes ahead of a running
    // training task must agree with the collect order.
    struct Spec
    {
        bool train;
        std::uint32_t stream;
        RuntimeClock::time_point deadline;
    };
    const auto never = RuntimeClock::time_point::max();
    const auto soon = RuntimeClock::now() + std::chrono::seconds(1);
    const auto later = RuntimeClock::now() + std::chrono::hours(1);
    const std::vector<Spec> specs = {
        {true, 0, never}, {true, 0, soon},   {true, 1, never},
        {false, 0, never}, {false, 0, later}, {false, 1, never},
        {false, 2, never},
    };
    TrainTask task;
    const auto entry = [&](std::size_t i) {
        QueueEntry e;
        e.request.id = i;
        e.request.stream = specs[i].stream;
        e.request.deadline = specs[i].deadline;
        e.request.train = specs[i].train ? &task : nullptr;
        return e;
    };

    CollectedBatch batch;
    for (std::size_t t = 0; t < specs.size(); t++) {
        if (!specs[t].train)
            continue;
        for (std::size_t i = 0; i < specs.size(); i++) {
            RequestQueue ranking(1, SelectPolicy::LaterStreamFirst);
            QueueEntry e = entry(i);
            ASSERT_TRUE(ranking.tryPush(e));
            EXPECT_EQ(ranking.collectAhead(entry(t), batch),
                      !specs[i].train && specs[i].stream >= specs[t].stream)
                << "entry " << i << " against training entry " << t;
        }
    }

    std::vector<std::size_t> order(specs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    do {
        RequestQueue queue(specs.size(), SelectPolicy::LaterStreamFirst);
        for (const std::size_t i : order) {
            QueueEntry e = entry(i);
            ASSERT_TRUE(queue.tryPush(e));
        }
        std::vector<bool> popped(specs.size(), false);
        while (queue.size() > 0) {
            // At maxBatch 1 every collect takes one entry, in order.
            ASSERT_TRUE(queue.collect(batch));
            ASSERT_EQ(batch.entries.size() + batch.expired.size(), 1u);
            const std::size_t t = batch.entries.empty()
                                      ? batch.expired[0].request.id
                                      : batch.entries[0].request.id;
            popped[t] = true;
            if (!specs[t].train)
                continue;
            for (std::size_t i = 0; i < specs.size(); i++) {
                if (!specs[i].train && specs[i].stream >= specs[t].stream) {
                    ASSERT_TRUE(popped[i])
                        << "training entry " << t << " popped before "
                        << "inference entry " << i;
                }
            }
        }
    } while (std::next_permutation(order.begin(), order.end()));
}

/**
 * The dispatch rules restated over a plain list: what RequestQueue
 * should hand out, given the same calls. Entries are kept in admission
 * order and ranked by sorting, not by a heap.
 */
class ReferenceQueue
{
  public:
    struct Entry
    {
        std::uint64_t id;
        std::uint32_t stream;
        bool train;
        std::size_t shape; ///< index into the walk's shapes
        bool lapsed;
        RuntimeClock::time_point deadline;
    };

    ReferenceQueue(std::size_t capacity, SelectPolicy policy,
                   std::size_t max_batch)
        : capacity_(capacity), policy_(policy), maxBatch_(max_batch)
    {
    }

    bool
    push(const Entry &e)
    {
        if (closed_ || live_.size() >= capacity_)
            return false;
        live_.push_back(e);
        return true;
    }

    /** What a collect (task null) or collectAhead(task) takes. */
    std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>
    take(const Entry *task)
    {
        std::stable_sort(live_.begin(), live_.end(),
                         [&](const Entry &a, const Entry &b) {
                             return before(a, b);
                         });
        std::vector<std::uint64_t> batch, expired;
        std::size_t seed = 0;
        std::size_t i = 0;
        while (i < live_.size() && batch.size() < maxBatch_) {
            const Entry &e = live_[i];
            if (task != nullptr && (e.train || !before(e, *task)))
                break; // only what preempts the running task
            if (!batch.empty() &&
                (e.train || live_[seed].train ||
                 e.shape != live_[seed].shape))
                break; // incompatible: stays queued
            if (e.lapsed) {
                expired.push_back(e.id); // its slot stays open
            } else {
                if (batch.empty())
                    seed = i;
                batch.push_back(e.id);
            }
            i++;
        }
        // Everything before i left the queue.
        live_.erase(live_.begin(), live_.begin() + i);
        return {batch, expired};
    }

    std::vector<std::uint64_t>
    close(bool drain)
    {
        closed_ = true;
        std::vector<std::uint64_t> leftovers;
        if (!drain) {
            std::sort(live_.begin(), live_.end(),
                      [](const Entry &a, const Entry &b) {
                          return a.id < b.id;
                      });
            for (const Entry &e : live_)
                leftovers.push_back(e.id);
            live_.clear();
        }
        return leftovers;
    }

    bool
    inferenceHeads()
    {
        if (live_.empty())
            return false;
        return !std::min_element(live_.begin(), live_.end(),
                                 [&](const Entry &a, const Entry &b) {
                                     return before(a, b);
                                 })
                    ->train;
    }

    std::size_t size() const { return live_.size(); }
    bool closed() const { return closed_; }

  private:
    /** True when a dispatches before b (ids are admission order). */
    bool
    before(const Entry &a, const Entry &b) const
    {
        if (policy_ == SelectPolicy::LaterStreamFirst) {
            if (a.stream != b.stream)
                return a.stream > b.stream;
            if (a.train != b.train)
                return !a.train;
            if (a.deadline != b.deadline)
                return a.deadline < b.deadline;
        }
        return a.id < b.id;
    }

    const std::size_t capacity_;
    const SelectPolicy policy_;
    const std::size_t maxBatch_;
    std::vector<Entry> live_;
    bool closed_ = false;
};

TEST(RequestQueue, RandomWalkMatchesReferenceModel)
{
    // Seeded random walks over the queue alone: pushes of inference
    // entries (stream 0-2, one of two shapes, a deadline long past,
    // far away or none) and training tasks, collects at maxBatch 1-4 under both
    // policies, collectAhead for a collected task, and close. Every
    // dispatch must be the one the reference forms, and every admitted
    // entry must end exactly once: dispatched, expired or cancelled.
    const Shape shapes[2] = {Shape{kDim}, Shape{kDim, 2}};
    const auto t0 = RuntimeClock::now();
    const auto past = t0 - std::chrono::hours(1);
    const auto far = t0 + std::chrono::hours(1);
    TrainTask train;
    constexpr std::size_t kCapacity = 6;
    constexpr int kSteps = 60;

    for (std::uint64_t seed = 1; seed <= 300; seed++) {
        Rng rng(seed);
        const SelectPolicy policy = rng.nextBelow(2) == 0
                                        ? SelectPolicy::LaterStreamFirst
                                        : SelectPolicy::Fifo;
        const std::size_t max_batch = 1 + rng.nextBelow(4);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", maxBatch " +
                     std::to_string(max_batch));
        RequestQueue queue(kCapacity, policy, max_batch);
        ReferenceQueue ref(kCapacity, policy, max_batch);

        std::vector<int> ends; // per admitted id: times it ended
        std::vector<ReferenceQueue::Entry> specs;
        CollectedBatch batch;
        std::optional<QueueEntry> running; // a collected training task
        std::optional<ReferenceQueue::Entry> running_ref;

        const auto end = [&](const std::vector<QueueEntry> &entries) {
            for (const QueueEntry &e : entries)
                ends[e.request.id]++;
        };
        const auto ids = [](const std::vector<QueueEntry> &entries) {
            std::vector<std::uint64_t> out;
            for (const QueueEntry &e : entries)
                out.push_back(e.request.id);
            return out;
        };
        const auto dispatch = [&](const ReferenceQueue::Entry *task) {
            const bool got = task == nullptr
                                 ? queue.collect(batch)
                                 : queue.collectAhead(*running, batch);
            const auto [want_batch, want_expired] = ref.take(task);
            ASSERT_EQ(got, !want_batch.empty() || !want_expired.empty());
            ASSERT_EQ(ids(batch.entries), want_batch);
            ASSERT_EQ(ids(batch.expired), want_expired);
            end(batch.entries);
            end(batch.expired);
            // A collected training task becomes the running one.
            if (task == nullptr && !batch.entries.empty() &&
                batch.entries[0].request.train != nullptr) {
                running = std::move(batch.entries[0]);
                running_ref = specs[running->request.id];
            }
        };

        for (int step = 0; step < kSteps; step++) {
            const std::uint64_t op = rng.nextBelow(10);
            if (op < 5) { // push inference or training
                const bool is_train = op == 4;
                ReferenceQueue::Entry spec;
                spec.id = specs.size();
                spec.stream = static_cast<std::uint32_t>(rng.nextBelow(3));
                spec.train = is_train;
                spec.shape = is_train ? 0 : rng.nextBelow(2);
                // Far away is an hour off, or none at all as submit()'s
                // default, which ties with every training task's.
                const std::uint64_t deadline = rng.nextBelow(3);
                spec.lapsed = !is_train && deadline == 0;
                spec.deadline = is_train || deadline == 2
                                    ? RuntimeClock::time_point::max()
                                : spec.lapsed ? past
                                              : far;
                QueueEntry e;
                e.request.id = spec.id;
                e.request.stream = spec.stream;
                e.request.deadline = spec.deadline;
                e.request.train = is_train ? &train : nullptr;
                e.request.input = Tensor(shapes[spec.shape]);
                const bool pushed = queue.tryPush(e);
                ASSERT_EQ(pushed, ref.push(spec));
                if (pushed) {
                    specs.push_back(spec);
                    ends.push_back(0);
                }
            } else if (op < 8) { // collect, never blocking
                if (queue.size() == 0 && !ref.closed())
                    continue;
                dispatch(nullptr);
            } else if (op == 8) { // yield of the running task
                if (!running)
                    continue;
                dispatch(&*running_ref);
            } else if (rng.nextBelow(4) == 0) { // close, now and then
                const bool drain = rng.nextBelow(2) == 0;
                std::vector<QueueEntry> left = queue.close(drain);
                ASSERT_EQ(ids(left), ref.close(drain));
                end(left);
            }
            ASSERT_EQ(queue.size(), ref.size());
            ASSERT_EQ(queue.inferenceHeads(), ref.inferenceHeads());
        }

        // Drain: close, then collect until the queue says it is done.
        end(queue.close(/*drain=*/true));
        ref.close(/*drain=*/true);
        while (queue.size() > 0)
            dispatch(nullptr);
        EXPECT_FALSE(queue.collect(batch));
        for (std::size_t id = 0; id < ends.size(); id++)
            ASSERT_EQ(ends[id], 1) << "entry " << id;
    }
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

/** makeReferenceModel() with one weight moved: what a publication
 *  of trained weights installs. */
std::unique_ptr<NodeModel>
makeRetrainedModel()
{
    auto model = makeReferenceModel();
    model->paramSlots()[0].param->at(0) += 0.5f;
    return model;
}

Tensor
referenceForward(const Tensor &input,
                 std::unique_ptr<NodeModel> (*make)() = makeReferenceModel)
{
    auto model = make();
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
    EXPECT_EQ(s.batchesDispatched, 2u); // 8 requests, cap 4
    EXPECT_EQ(s.batchOccupancyMean, 4.0);
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
    // takes the same collect and batched-solve path.
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

TEST(Batching, BatchSizeCountsStayExactPastThirtyTwo)
{
    // Sizes are counted exactly at any maxBatch: one worker collects
    // all 40 queued requests into one dispatch, counted as one batch
    // of 40 in the summary and in the snapshot.
    const std::size_t n = 40;
    InferenceServer server(makeReferenceModel,
                           batchedOptions(1, n, /*paused=*/true));
    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < n; i++) {
        auto sub = server.submit(makeInput(i));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.resume();
    for (auto &future : futures) {
        const InferResponse r = future.get();
        EXPECT_EQ(r.status, RequestStatus::Ok);
        EXPECT_EQ(r.batchSize, n);
    }
    server.stop();

    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.batchedRequests, n);
    std::uint64_t batches = 0, requests = 0;
    for (std::size_t i = 0; i < s.batchSizeCounts.size(); i++) {
        batches += s.batchSizeCounts[i];
        requests += s.batchSizeCounts[i] * (i + 1);
    }
    EXPECT_EQ(batches, s.batchesDispatched);
    EXPECT_EQ(requests, s.batchedRequests);
    ASSERT_EQ(s.batchSizeCounts.size(), n);
    EXPECT_EQ(s.batchSizeCounts[n - 1], 1u);
    EXPECT_EQ(server.metrics().snapshot().get("batch.size.bin_40"), 1.0);
}

TEST(Batcher, IncompatibleShapeClosesBatchAndSeedsNext)
{
    // Mixed request shapes must never stack into one solve. The
    // incompatible head closes the open batch and stays queued, so the
    // queue's own order decides what dispatches next: under Fifo it
    // seeds the next batch, never reordered behind later arrivals of
    // its own class; under LaterStreamFirst a later arrival on a later
    // stream still dispatches ahead of it.
    RequestQueue queue(16, SelectPolicy::Fifo, /*maxBatch=*/4);
    const auto push = [](RequestQueue &q, std::uint64_t id,
                         const Shape &shape, std::uint32_t stream = 0) {
        QueueEntry entry;
        entry.request.id = id;
        entry.request.stream = stream;
        entry.request.input = Tensor(shape);
        entry.enqueueTime = RuntimeClock::now();
        ASSERT_TRUE(q.tryPush(entry));
    };
    push(queue, 0, Shape{kDim});
    push(queue, 1, Shape{kDim});
    push(queue, 2, Shape{kDim});
    push(queue, 3, Shape{kDim, 2}); // incompatible: closes the first batch
    push(queue, 4, Shape{kDim});    // incompatible with 3: a third batch

    CollectedBatch batch;
    ASSERT_TRUE(queue.collect(batch));
    ASSERT_EQ(batch.entries.size(), 3u);
    for (std::uint64_t i = 0; i < 3; i++)
        EXPECT_EQ(batch.entries[i].request.id, i);
    EXPECT_TRUE(batch.expired.empty());
    EXPECT_EQ(queue.size(), 2u) << "the batch-ending request left the queue";

    ASSERT_TRUE(queue.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u); // the rank-2 request
    EXPECT_EQ(batch.entries[0].request.id, 3u);

    ASSERT_TRUE(queue.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].request.id, 4u);

    // A stream-2 request ends a stream-3 batch; a stream-3 request
    // admitted after it must still dispatch first.
    RequestQueue ranked(16, SelectPolicy::LaterStreamFirst, /*maxBatch=*/4);
    push(ranked, 5, Shape{kDim}, 3);
    push(ranked, 6, Shape{kDim, 2}, 2);
    ASSERT_TRUE(ranked.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].request.id, 5u);
    push(ranked, 7, Shape{kDim}, 3);
    ASSERT_TRUE(ranked.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].request.id, 7u)
        << "a later-stream request waited behind the batch-ending one";
    ASSERT_TRUE(ranked.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].request.id, 6u);
}

TEST(Batching, WeightPublicationDoesNotSplitABatch)
{
    // Two requests admitted before a weight publication and two after
    // share one batch: the worker swaps its replica before the solve,
    // so all four run on, and are stamped with, the new version, bit
    // for bit NodeModel::forward on the new weights. The cache follows
    // each request's own stamp: only the two admitted after the
    // publication were keyed against the weights that solved them, so
    // only their inputs come back as exact-cache hits.
    ServerOptions opts = batchedOptions(1, 4, /*paused=*/true);
    opts.cache.enabled = true;
    opts.cache.warmCapacity = 0; // cold solves: comparable to forward
    InferenceServer server(makeReferenceModel, opts);
    ASSERT_NE(server.solveCache(), nullptr);

    std::vector<Tensor> inputs;
    std::vector<std::future<InferResponse>> futures;
    for (std::size_t i = 0; i < 4; i++) {
        if (i == 2)
            server.registry().publish(
                ModelRegistry::capture(*makeRetrainedModel()));
        inputs.push_back(makeInput(200 + i));
        auto sub = server.submit(inputs.back());
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.result));
    }
    server.resume();
    std::vector<Tensor> outputs;
    for (std::size_t i = 0; i < 4; i++) {
        InferResponse r = futures[i].get();
        EXPECT_EQ(r.status, RequestStatus::Ok);
        EXPECT_EQ(r.batchSize, 4u) << "the publication split the batch";
        EXPECT_EQ(r.modelVersion, 1u);
        EXPECT_TRUE(bitwiseEqual(
            r.output, referenceForward(inputs[i], makeRetrainedModel)))
            << "request " << i << " missed the new weights";
        outputs.push_back(std::move(r.output));
    }

    for (std::size_t i = 0; i < 4; i++) {
        const InferResponse r = server.submit(inputs[i]).result.get();
        EXPECT_EQ(r.status, RequestStatus::Ok);
        EXPECT_EQ(r.cacheHit, i >= 2) << "resubmitted input " << i;
        EXPECT_TRUE(bitwiseEqual(r.output, outputs[i]));
    }
    server.stop();
    EXPECT_EQ(server.solveCache()->exactHits(), 2u);
    const MetricsSummary s = server.metrics().summary();
    EXPECT_EQ(s.batchesDispatched, 3u); // the batch of 4, two misses
    EXPECT_EQ(s.batchedRequests, 6u);
}

TEST(Batcher, TrainTasksShipSoloInQueueOrder)
{
    // Gradient tasks never coalesce — with each other (each task
    // carries its own gradient-slot pointer) or with inference (they
    // run a different solve entirely) — so each ships alone, in queue
    // order, ahead of the inference queued behind them.
    RequestQueue queue(16, SelectPolicy::Fifo, /*maxBatch=*/4);

    TrainTask task_a, task_b;
    const auto push = [](RequestQueue &q, std::uint64_t id,
                         TrainTask *task, std::uint32_t stream = 0) {
        QueueEntry entry;
        entry.request.id = id;
        entry.request.stream = stream;
        entry.request.train = task;
        entry.request.input = Tensor(Shape{kDim});
        entry.enqueueTime = RuntimeClock::now();
        ASSERT_TRUE(q.tryPush(entry));
    };
    push(queue, 0, &task_a);
    push(queue, 1, &task_b);
    push(queue, 2, nullptr);
    push(queue, 3, nullptr);
    push(queue, 4, nullptr);
    push(queue, 5, nullptr);

    CollectedBatch batch;
    ASSERT_TRUE(queue.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u) << "train tasks coalesced";
    EXPECT_EQ(batch.entries[0].request.id, 0u);

    ASSERT_TRUE(queue.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].request.id, 1u);

    // The inference run behind them still coalesces normally.
    ASSERT_TRUE(queue.collect(batch));
    ASSERT_EQ(batch.entries.size(), 4u);
    for (std::uint64_t i = 0; i < 4; i++)
        EXPECT_EQ(batch.entries[i].request.id, i + 2);

    // Under LaterStreamFirst a task that heads the queue behind an
    // inference seed ends the batch and stays queued, ranked after
    // every inference request of its stream: a later inference
    // arrival on that stream still dispatches first.
    RequestQueue ranked(16, SelectPolicy::LaterStreamFirst, /*maxBatch=*/4);
    push(ranked, 6, nullptr, 1);
    push(ranked, 7, &task_a, 1);
    ASSERT_TRUE(ranked.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].request.id, 6u);
    EXPECT_EQ(ranked.size(), 1u) << "the task left the queue";
    push(ranked, 8, nullptr, 1);
    ASSERT_TRUE(ranked.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].request.id, 8u)
        << "the task dispatched ahead of inference on its stream";
    ASSERT_TRUE(ranked.collect(batch));
    ASSERT_EQ(batch.entries.size(), 1u);
    EXPECT_EQ(batch.entries[0].request.id, 7u);
}

TEST(Batcher, CollectAheadTakesOnlyWhatPreemptsTheRunningTask)
{
    // A running training task yields only to inference the queue's own
    // order would have dispatched first, and collectAhead never blocks:
    // it returns what is queued right now.
    TrainTask train;
    const auto entry = [&](std::uint64_t id, std::uint32_t stream,
                           RuntimeClock::time_point deadline,
                           TrainTask *task = nullptr) {
        QueueEntry e;
        e.request.id = id;
        e.request.stream = stream;
        e.request.deadline = deadline;
        e.request.train = task;
        e.request.input = Tensor(Shape{kDim});
        e.enqueueTime = RuntimeClock::now();
        return e;
    };
    const auto never = RuntimeClock::time_point::max();
    const auto later = RuntimeClock::now() + std::chrono::hours(1);

    RequestQueue queue(16, SelectPolicy::LaterStreamFirst, /*maxBatch=*/4);
    QueueEntry queued_task = entry(0, 0, never, &train);
    ASSERT_TRUE(queue.tryPush(queued_task));
    CollectedBatch running;
    ASSERT_TRUE(queue.collect(running));
    ASSERT_EQ(running.entries.size(), 1u);
    const QueueEntry &task = running.entries[0];

    CollectedBatch batch;
    // Same stream with no deadline, admitted after the task; a later
    // stream; a tighter deadline on the task's stream: each preempts
    // it, and they coalesce in the queue's own order.
    QueueEntry same = entry(1, 0, never);
    QueueEntry hi = entry(2, 1, never);
    QueueEntry tight = entry(3, 0, later);
    ASSERT_TRUE(queue.tryPush(same));
    ASSERT_TRUE(queue.tryPush(hi));
    ASSERT_TRUE(queue.tryPush(tight));
    ASSERT_TRUE(queue.collectAhead(task, batch));
    ASSERT_EQ(batch.entries.size(), 3u);
    EXPECT_EQ(batch.entries[0].request.id, 2u);
    EXPECT_EQ(batch.entries[1].request.id, 3u);
    EXPECT_EQ(batch.entries[2].request.id, 1u);
    EXPECT_FALSE(queue.collectAhead(task, batch));
    EXPECT_EQ(queue.size(), 0u);

    // A preempting request already past its deadline comes back
    // expired, never as work.
    QueueEntry lapsed =
        entry(4, 1, RuntimeClock::now() - std::chrono::seconds(1));
    ASSERT_TRUE(queue.tryPush(lapsed));
    ASSERT_TRUE(queue.collectAhead(task, batch));
    EXPECT_TRUE(batch.entries.empty());
    ASSERT_EQ(batch.expired.size(), 1u);
    EXPECT_EQ(batch.expired[0].request.id, 4u);

    // Under Fifo nothing admitted after the task ranks ahead of it, and
    // another training task never preempts one.
    RequestQueue fifo(16, SelectPolicy::Fifo, /*maxBatch=*/1);
    QueueEntry queued_fifo_task = entry(5, 0, never, &train);
    ASSERT_TRUE(fifo.tryPush(queued_fifo_task));
    CollectedBatch fifo_running;
    ASSERT_TRUE(fifo.collect(fifo_running));
    ASSERT_EQ(fifo_running.entries.size(), 1u);
    const QueueEntry &fifo_task = fifo_running.entries[0];
    QueueEntry fifo_hi = entry(6, 3, later);
    ASSERT_TRUE(fifo.tryPush(fifo_hi));
    EXPECT_TRUE(fifo.inferenceHeads()) << "the hint is only a hint";
    EXPECT_FALSE(fifo.collectAhead(fifo_task, batch));
    QueueEntry other_task = entry(7, 3, later, &train);
    ASSERT_TRUE(queue.tryPush(other_task));
    EXPECT_FALSE(queue.collectAhead(task, batch));
}

TEST(Batcher, ConcurrentCollectorsWithMixedShapesLoseNothing)
{
    // Several collectors share one queue while mixed-shape requests
    // stream in: most batches end at an incompatible head, which the
    // collector leaves queued for whichever collector pops next, so
    // every request must still come back exactly once and no batch may
    // mix shapes. Runs under TSan in CI.
    constexpr std::size_t kCollectors = 4;
    constexpr std::uint64_t kRequests = 400;
    const Shape shapes[3] = {Shape{kDim}, Shape{kDim, 2},
                             Shape{kDim, 3}};

    RequestQueue queue(kRequests, SelectPolicy::Fifo, /*maxBatch=*/4);

    std::vector<std::vector<std::uint64_t>> collected(kCollectors);
    std::vector<std::size_t> mixed_batches(kCollectors, 0);
    std::vector<std::thread> collectors;
    for (std::size_t c = 0; c < kCollectors; c++) {
        collectors.emplace_back([&, c] {
            CollectedBatch batch;
            while (queue.collect(batch)) {
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
        // batches end at an incompatible entry while several
        // collectors race on the queue.
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
    server.stop(/*drain=*/true); // resume + drain through collect
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
