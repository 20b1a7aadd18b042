#include "runtime/inference_server.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/trace_span.h"
#include "ode/step_control.h"
#include "runtime/exposition.h"
#include "runtime/training_service.h"

namespace enode {

namespace {

double
toMs(RuntimeClock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

/**
 * Cache identity of (solver config, weights): a plain combination of
 * the two digests. The version *number* is deliberately absent, so a
 * republication of identical bytes keeps its cache identity.
 */
Hash128
combineDigests(const Hash128 &config, const Hash128 &params)
{
    return {mix64(config.hi ^ params.hi), mix64(config.lo ^ params.lo)};
}

} // namespace

std::size_t
clampIntraOpThreads(std::size_t workers, std::size_t requested,
                    std::size_t hwThreads)
{
    if (requested <= 1)
        return 1;
    if (hwThreads == 0 || workers == 0)
        return requested; // unknown hardware: trust the caller
    // Largest width that keeps workers * width within the machine.
    const std::size_t budget = hwThreads / workers;
    return std::max<std::size_t>(1, std::min(requested, budget));
}

const char *
requestStatusName(RequestStatus status)
{
    switch (status) {
      case RequestStatus::Ok:
        return "ok";
      case RequestStatus::Cancelled:
        return "cancelled";
      case RequestStatus::DeadlineExceeded:
        return "deadline-exceeded";
      case RequestStatus::Failed:
        return "failed";
      case RequestStatus::Shed:
        return "shed";
      case RequestStatus::InvalidInput:
        return "invalid-input";
    }
    ENODE_PANIC("unknown RequestStatus");
}

InferenceServer::InferenceServer(ModelFactory make_model,
                                 ServerOptions options,
                                 ControllerFactory make_controller)
    : options_(options), tableau_(ButcherTableau::rk23()),
      queue_(options.queueCapacity, options.policy, options.maxBatch),
      modelFactory_(std::move(make_model)),
      controllerFactory_(std::move(make_controller)),
      paused_(options.startPaused)
{
    ENODE_ASSERT(options_.numWorkers >= 1, "server needs >= 1 worker");
    ENODE_ASSERT(static_cast<bool>(modelFactory_), "null model factory");
    ENODE_ASSERT(options_.degrade.retryToleranceFactor >= 1.0,
                 "retryToleranceFactor must be >= 1");
    ENODE_ASSERT(options_.degrade.fallbackSteps >= 1,
                 "fallbackSteps must be >= 1");
    if (options_.cache.enabled)
        solveCache_ = std::make_unique<SolveCache>(options_.cache);
    if (options_.overload.enabled)
        admission_ = std::make_unique<AdmissionController>(
            options_.overload, options_.numWorkers);
    // Intra-op width: clamp workers * width to the machine, then build
    // one shared tile pool for all workers. Each worker contributes
    // itself plus (width - 1) borrowed pool threads, so the pool needs
    // numWorkers * (width - 1) threads for the ring to run full even
    // when every worker computes at once.
    const std::size_t requested = std::max<std::size_t>(
        1, options_.intraOpThreads);
    intraOpWidth_ = clampIntraOpThreads(
        options_.numWorkers, requested, std::thread::hardware_concurrency());
    if (intraOpWidth_ < requested) {
        ENODE_WARN("intraOpThreads clamped from ", requested, " to ",
                   intraOpWidth_, ": ", options_.numWorkers, " workers x ",
                   requested, " exceeds ",
                   std::thread::hardware_concurrency(),
                   " hardware threads");
    }
    if (intraOpWidth_ > 1) {
        intraOpPool_ = std::make_unique<TaskPool>(
            options_.numWorkers * (intraOpWidth_ - 1));
    }

    // Build the replicas sequentially on this thread: user factories
    // are free to capture shared state (e.g. one Rng) without locking.
    workers_.reserve(options_.numWorkers);
    for (std::size_t i = 0; i < options_.numWorkers; i++) {
        auto worker = std::make_unique<Worker>();
        worker->model = modelFactory_();
        ENODE_ASSERT(worker->model != nullptr,
                     "model factory returned null");
        // Batched solves need one controller per sample so each state's
        // stepsize search runs exactly as it would solo.
        worker->controllers.reserve(options_.maxBatch);
        for (std::size_t b = 0; b < options_.maxBatch; b++)
            worker->controllers.push_back(makeController());
        // Warm tier on: wrap every controller in a recording/replaying
        // decorator. The wrapped controller still sees every callback,
        // so disabling the cache cannot change any trial sequence.
        if (solveCache_ != nullptr && options_.cache.warmCapacity > 0) {
            worker->warm.reserve(worker->controllers.size());
            for (auto &inner : worker->controllers)
                worker->warm.push_back(
                    std::make_unique<WarmStartController>(inner.get()));
            worker->warmScratch.resize(worker->controllers.size());
        }
        workers_.push_back(std::move(worker));
    }

    // Replica 0's weights become registry version 0, and every other
    // replica gets them the way later versions arrive, through applyTo,
    // so all workers serve bit-identical weights and start at version
    // 0 (Worker::replicaVersion's default). The training service
    // publishes versions 1, 2, ... through publish().
    registry_.seed(*workers_[0]->model);
    const std::shared_ptr<const WeightSnapshot> v0 = registry_.latest();
    for (std::size_t i = 1; i < workers_.size(); i++)
        ModelRegistry::applyTo(*v0, *workers_[i]->model);

    // Solver-config digest every cache key embeds: everything a
    // response's bytes depend on *except* the weights, whose digest
    // the stamp takes from the live snapshot. Two servers agree on a
    // key only when a fresh solve would produce identical outputs.
    if (solveCache_ != nullptr) {
        StreamHasher hasher;
        NodeModel &master = *workers_[0]->model;
        hasher.updateDouble(master.layerTime());
        hasher.update(static_cast<std::uint64_t>(master.numLayers()));
        hasher.updateDouble(options_.ivp.tolerance);
        hasher.updateDouble(options_.ivp.initialDt);
        hasher.updateDouble(options_.ivp.minDt);
        hasher.update(options_.ivp.maxTrialsPerPoint);
        hasher.update(options_.ivp.maxEvalPoints);
        hasher.update(options_.ivp.quantizeFp16 ? 1u : 0u);
        // Variable-length fields go in length-prefixed (updateSized) so
        // adjacent fields cannot alias.
        hasher.updateSized(tableau_.name().data(), tableau_.name().size());
        const std::string controller = workers_[0]->controllers[0]->name();
        hasher.updateSized(controller.data(), controller.size());
        configDigest_ = hasher.digest();
    }

    // Arm tracing before the first worker spawns so every worker's
    // first event registers its ring against this server's generation.
    if (options_.traceEnabled)
        Tracer::instance().arm(options_.traceRingCapacity);

    for (std::size_t i = 0; i < workers_.size(); i++)
        workers_[i]->thread =
            std::thread([this, i] { workerMain(i); });

    if (options_.degrade.watchdogMs > 0.0)
        watchdog_ = std::thread([this] { watchdogMain(); });

    if (options_.publishPeriodMs > 0.0) {
        publisher_ = std::make_unique<MetricsPublisher>();
        publisher_->addGauge("queue.depth", [this] {
            return static_cast<double>(queue_.size());
        });
        publisher_->addGauge("workers.in_flight", [this] {
            return static_cast<double>(activeWorkers());
        });
        publisher_->addGauge("workers.occupancy", [this] {
            return workers_.empty()
                       ? 0.0
                       : static_cast<double>(activeWorkers()) /
                             static_cast<double>(workers_.size());
        });
        publisher_->start(options_.publishPeriodMs);
    }
}

InferenceServer::~InferenceServer()
{
    stop(true);
}

InferenceServer::Submission
InferenceServer::submit(Tensor input, std::uint32_t stream,
                        RuntimeClock::time_point deadline)
{
    Submission sub;
    if (stopped_.load(std::memory_order_acquire))
        return sub;

    // Chaos probe: an armed fault plan can force queue-full rejections
    // to exercise client backpressure handling.
    if (FaultInjector::instance().shouldFail("queue.push")) {
        metrics_.recordRejected();
        return sub;
    }

    QueueEntry entry;
    entry.request.id = nextRequestId_.fetch_add(1);
    entry.request.stream = stream;
    entry.request.deadline = deadline;
    entry.request.input = std::move(input);
    entry.enqueueTime = RuntimeClock::now();

    const std::uint64_t id = entry.request.id;
    std::future<InferResponse> future = entry.promise.get_future();

    if (!acceptsState(entry.request.input.shape())) {
        // Decided here, like a shed: a state the model cannot take never
        // reaches the cache, the queue or a worker.
        metrics_.recordAdmitted();
        endUnsolved(entry, RequestStatus::InvalidInput);
        sub.accepted = true;
        sub.id = id;
        sub.result = std::move(future);
        return sub;
    }
    stamp(entry.request);

    if (entry.request.cacheKey.valid()) {
        // The request's one exact-tier decision, right here on the
        // admission path: a ready value answers without ever touching
        // the queue, an in-flight identical solve absorbs this request
        // as a follower, and otherwise this request becomes the key's
        // only owner.
        Tensor hit;
        switch (solveCache_->lookupOrAttach(entry.request.cacheKey, entry,
                                            hit)) {
          case SolveCache::Lookup::Hit:
            metrics_.recordAdmitted();
            deliverCacheHit(0, entry, std::move(hit));
            sub.accepted = true;
            sub.id = id;
            sub.result = std::move(future);
            return sub;
          case SolveCache::Lookup::Attached:
            // The entry (promise included) now rides the pending solve;
            // the owner's publish will fulfil it.
            metrics_.recordAdmitted();
            sub.accepted = true;
            sub.id = id;
            sub.result = std::move(future);
            return sub;
          case SolveCache::Lookup::Owner:
            // Registered under the lookup's lock: from here every path
            // that ends this request without a clean solve retracts the
            // registration.
            break;
        }
    }

    if (admission_ != nullptr) {
        // Deadline-aware admission: estimate this request's completion
        // against its budget; an infeasible request (or a low-priority
        // one under brownout level 3) is shed now — before it occupies
        // a queue slot, a worker, or a batch seat. Cache hits and
        // attached followers above bypass the check: their marginal
        // cost is a tensor copy, not a solve.
        const double budget_ms = toMs(deadline - entry.enqueueTime);
        const AdmissionController::Verdict verdict = admission_->admit(
            shapeKeyOf(entry.request.input), stream, budget_ms,
            queue_.size());
        if (verdict.shed) {
            metrics_.recordAdmitted();
            retractPending(entry.request); // a shed owner solves nothing
            shedEntry(entry, verdict.estimateMs);
            sub.accepted = true;
            sub.id = id;
            sub.result = std::move(future);
            return sub;
        }
    }

    if (!queue_.tryPush(entry)) {
        // The push was refused, so the registration has no solve behind
        // it. Followers that attached since the lookup get the verdict
        // this request is getting (re-queued if room appeared, else
        // cancelled).
        retractPending(entry.request);
        metrics_.recordRejected();
        return sub; // backpressure: accepted stays false
    }
    metrics_.recordAdmitted();
    sub.accepted = true;
    sub.id = id;
    sub.result = std::move(future);
    return sub;
}

InferenceServer::Submission
InferenceServer::submitTrainTask(TrainTask &task)
{
    Submission sub;
    if (stopped_.load(std::memory_order_acquire))
        return sub;
    ENODE_ASSERT(task.weights != nullptr, "train task without weights");
    ENODE_ASSERT(task.grads != nullptr, "train task without a grad slot");

    QueueEntry entry;
    entry.request.id = nextRequestId_.fetch_add(1);
    entry.request.stream = task.stream;
    // Under LaterStreamFirst the queue ranks a training entry after
    // every inference entry of its stream, so training dispatches only
    // when no inference request of equal or higher priority is waiting.
    entry.request.input = task.input; // copy: the task survives retries
    entry.request.train = &task;
    entry.enqueueTime = RuntimeClock::now();

    const std::uint64_t id = entry.request.id;
    std::future<InferResponse> future = entry.promise.get_future();

    // Deliberately no metrics, cache, or admission interaction: the
    // inference terminal counters reconcile over inference admissions
    // only, and gradient solves are never cacheable (they mutate
    // gradient state, not just produce an output). A task whose input
    // the model cannot take, or whose target has another shape, is
    // answered at once and never queued.
    if (!acceptsState(task.input.shape()) ||
        task.target.shape() != task.input.shape()) {
        endUnsolved(entry, RequestStatus::InvalidInput);
    } else if (!queue_.tryPush(entry)) {
        return sub; // backpressure: the service retries on its clock
    }
    sub.accepted = true;
    sub.id = id;
    sub.result = std::move(future);
    return sub;
}

/**
 * A training task's guard, checked after every accepted forward step
 * and before every backward step: the watchdog's abort flag first, then
 * one relaxed load asking whether inference heads the queue. When it
 * does, the worker serves a batch of the inference that preempts the
 * task before the task takes its next step.
 */
class InferenceServer::TrainGuard final : public SolveGuard
{
  public:
    TrainGuard(InferenceServer &server, std::size_t worker_id,
               const QueueEntry &task, const std::atomic<bool> &abort)
        : server_(server), workerId_(worker_id), task_(task), abort_(abort)
    {
    }

    SolveStatus
    check(const IvpStats &) override
    {
        if (abort_.load(std::memory_order_acquire))
            return SolveStatus::DeadlineExceeded;
        if (server_.queue_.inferenceHeads())
            server_.yieldTo(workerId_, task_);
        return SolveStatus::Ok;
    }

  private:
    InferenceServer &server_;
    const std::size_t workerId_;
    const QueueEntry &task_;
    const std::atomic<bool> &abort_;
};

void
InferenceServer::serveTrain(std::size_t worker_id, QueueEntry &entry,
                            InFlight &flight)
{
    Worker &worker = *workers_[worker_id];
    TrainTask &task = *entry.request.train;
    const auto start = RuntimeClock::now();

    TraceSpan span("train.task", "train");
    span.arg("step", static_cast<double>(task.step));
    span.arg("worker", static_cast<double>(worker_id));

    trainTasks_.fetch_add(1, std::memory_order_relaxed);

    // Lazy private training replica: inference-only servers never pay
    // for it, and it keeps training scratch state (layer caches,
    // checkpoint records) strictly apart from the serving replica.
    if (worker.trainModel == nullptr) {
        worker.trainModel = modelFactory_();
        ENODE_ASSERT(worker.trainModel != nullptr,
                     "model factory returned null");
        worker.trainController = makeController();
    }
    // Sync to the step's snapshot: every task of a step trains the
    // same bytes on every worker — the root of the bitwise
    // worker-count-independence of the reduced gradient.
    if (worker.trainStep != task.step) {
        ModelRegistry::applyTo(*task.weights, *worker.trainModel);
        worker.trainStep = task.step;
    }
    worker.trainModel->zeroGrad();
    // Read the task now: once the slot is published the watchdog may
    // take the task over, and its service then retries or reuses it.
    const Tensor target = task.target;
    const IvpOptions ivp = task.ivp;

    // Publish to the in-flight slot (train-flagged) so the watchdog
    // aborts a wedged training solve exactly like an inference one —
    // without feeding the inference metrics on takeover.
    flight.publish({&entry, 1}, start);

    // Chaos probe: a stall here models a training task wedging; the
    // watchdog must fail it while this thread sleeps, and the late
    // finish must leave the task to its retry.
    FaultInjector::instance().maybeStall("train.stall");

    // No deadline and no f-eval budget — training has all the time the
    // scheduler gives it — but the watchdog's abort flag still guards
    // against a wedged solve costing a worker.
    TrainGuard guard(*this, worker_id, entry, flight.abort);
    const TrainStepResult result = regressionTrainStep(
        *worker.trainModel, entry.request.input, target, tableau_,
        *worker.trainController, ivp, nullptr, &worker.acaWs, &guard);

    const SolveStatus status = result.forwardStatus != SolveStatus::Ok
                                   ? result.forwardStatus
                                   : result.backwardStatus;
    // A non-finite gradient fails the task: the service's reduction
    // must never ingest NaNs into the master weights.
    const std::vector<ParamSlot> &slots = worker.trainModel->paramSlots();
    bool ok = status == SolveStatus::Ok;
    for (std::size_t s = 0; s < slots.size() && ok; s++)
        ok = slots[s].grad->isFinite();

    const auto end = RuntimeClock::now();
    InferResponse response;
    response.id = entry.request.id;
    response.status = ok ? RequestStatus::Ok : RequestStatus::Failed;
    response.solveStatus =
        ok ? SolveStatus::Ok
           : (status != SolveStatus::Ok ? status : SolveStatus::NonFinite);
    response.queueWaitMs = toMs(start - entry.enqueueTime);
    response.solveMs = toMs(end - start);
    response.totalMs = toMs(end - entry.enqueueTime);
    response.workerId = worker_id;
    span.arg("status", static_cast<double>(response.status));

    if (!ok)
        trainTaskFailures_.fetch_add(1, std::memory_order_relaxed);

    // Claim before writing into the task: the watchdog may have taken
    // it over while it was wedged (its Failed response won), and then
    // the task belongs to its retry.
    std::optional<std::promise<InferResponse>> to_deliver = flight.claim(0);
    flight.retire();
    if (!to_deliver)
        return;
    if (ok) {
        // Harvest the gradients into the task's fixed slot.
        auto &grads = *task.grads;
        ENODE_ASSERT(grads.size() == slots.size(),
                     "train task grad slot count mismatch");
        for (std::size_t s = 0; s < slots.size(); s++)
            grads[s].copyFrom(*slots[s].grad);
        task.loss = result.loss;
        task.forwardStats = result.forwardStats;
        task.backwardStats = result.backwardStats;
    }
    task.forwardStatus = result.forwardStatus;
    deliverTerminal(*to_deliver, std::move(response), /*train=*/true);
}

void
InferenceServer::yieldTo(std::size_t worker_id, const QueueEntry &task)
{
    // One batch per yield point: the task takes its next step before
    // the next batch, so it advances however much inference keeps
    // arriving, and a request queued behind that batch waits one step
    // more.
    Worker &worker = *workers_[worker_id];
    if (!queue_.collectAhead(task, worker.yieldBatch))
        return;
    // The task's clock stops: the watchdog times the batch on slots[1]
    // instead, and the worker is already counted active.
    InFlight &task_slot = worker.slots[0];
    task_slot.pause(RuntimeClock::now());
    serveBatch(worker_id, worker.yieldBatch, worker.slots[1]);
    task_slot.resume(RuntimeClock::now());
    trainYields_.fetch_add(1, std::memory_order_relaxed);
}

void
InferenceServer::InFlight::publish(std::span<QueueEntry> entries,
                                   RuntimeClock::time_point when)
{
    std::lock_guard<std::mutex> lock(mutex);
    samples.clear();
    for (QueueEntry &entry : entries)
        samples.push_back({.promise = std::move(entry.promise),
                           .id = entry.request.id,
                           .deadline = entry.request.deadline,
                           .queueWaitMs = toMs(when - entry.enqueueTime),
                           .train = entry.request.train != nullptr});
    active = true;
    start = when;
    abort.store(false, std::memory_order_relaxed);
}

std::optional<std::promise<InferResponse>>
InferenceServer::InFlight::claim(std::size_t i)
{
    std::lock_guard<std::mutex> lock(mutex);
    Sample &sample = samples[i];
    if (sample.delivered)
        return std::nullopt;
    sample.delivered = true;
    return std::move(sample.promise);
}

void
InferenceServer::InFlight::retire()
{
    std::lock_guard<std::mutex> lock(mutex);
    active = false;
}

void
InferenceServer::InFlight::pause(RuntimeClock::time_point when)
{
    std::lock_guard<std::mutex> lock(mutex);
    paused = true;
    pausedAt = when;
}

void
InferenceServer::InFlight::resume(RuntimeClock::time_point when)
{
    std::lock_guard<std::mutex> lock(mutex);
    paused = false;
    start += when - pausedAt;
}

std::unique_ptr<StepController>
InferenceServer::makeController() const
{
    std::unique_ptr<StepController> controller =
        controllerFactory_ ? controllerFactory_()
                           : std::make_unique<FixedFactorController>();
    ENODE_ASSERT(controller != nullptr, "controller factory returned null");
    return controller;
}

void
InferenceServer::resume()
{
    {
        std::lock_guard<std::mutex> lock(pauseMutex_);
        paused_ = false;
    }
    pauseCv_.notify_all();
}

void
InferenceServer::stop(bool drain)
{
    if (stopped_.exchange(true, std::memory_order_acq_rel))
        return;

    std::vector<QueueEntry> leftovers = queue_.close(drain);
    resume(); // paused workers must wake to drain or exit

    // Cancelled entries may own pending cache entries with attached
    // followers; retracting those surfaces the followers, which are
    // cancelled in the same sweep (the queue is closed, so they cannot
    // be re-dispatched).
    while (!leftovers.empty()) {
        QueueEntry entry = std::move(leftovers.back());
        leftovers.pop_back();
        if (solveCache_ != nullptr && entry.request.cacheKey.valid()) {
            std::vector<QueueEntry> followers =
                solveCache_->publishFailure(entry.request.cacheKey);
            for (QueueEntry &f : followers)
                leftovers.push_back(std::move(f));
        }
        endUnsolved(entry, RequestStatus::Cancelled);
    }

    for (auto &worker : workers_)
        if (worker->thread.joinable())
            worker->thread.join();

    // Defensive sweep: every keyed request terminates through a
    // publish, so pending entries should be gone by now — but a
    // follower must never be left with an unfulfilled promise.
    if (solveCache_ != nullptr) {
        std::vector<QueueEntry> stranded = solveCache_->drainPending();
        for (QueueEntry &f : stranded)
            endUnsolved(f, RequestStatus::Cancelled);
    }

    // The watchdog outlives the workers so draining solves stay
    // protected; only after the last worker exits is it retired.
    if (watchdog_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(watchdogMutex_);
            watchdogStop_ = true;
        }
        watchdogCv_.notify_all();
        watchdog_.join();
    }

    // Final gauge sample after the drain, then disarm. Disarming keeps
    // every recorded event exportable (Tracer::exportChromeTrace); the
    // next armed server discards them.
    if (publisher_ != nullptr)
        publisher_->stop();
    if (options_.traceEnabled)
        Tracer::instance().disarm();
}

std::string
InferenceServer::metricsText() const
{
    std::string text = prometheusText(metrics_.snapshot());
    StatGroup queue_stats("queue");
    queue_stats.set("queue.depth", static_cast<double>(queue_.size()));
    queue_stats.set("queue.peak_depth",
                    static_cast<double>(queue_.peakSize()));
    queue_stats.setCounter("queue.rejected", queue_.rejected());
    queue_stats.setCounter("queue.closed_rejected", queue_.closedRejected());
    text += prometheusText(queue_stats);
    if (solveCache_ != nullptr)
        text += prometheusText(solveCache_->snapshot());
    if (admission_ != nullptr)
        text += prometheusText(admission_->snapshot());
    if (publisher_ != nullptr)
        text += prometheusText(publisher_->snapshot());
    text += prometheusText(registry_.snapshotStats());
    StatGroup train_stats("train");
    train_stats.setCounter("train.tasks",
                           trainTasks_.load(std::memory_order_relaxed));
    train_stats.setCounter(
        "train.task_failures",
        trainTaskFailures_.load(std::memory_order_relaxed));
    train_stats.setCounter("train.yields",
                           trainYields_.load(std::memory_order_relaxed));
    text += prometheusText(train_stats);
    return text;
}

void
InferenceServer::stamp(InferRequest &request) const
{
    // One read of the live snapshot: the version and both cache
    // identities name the same weights, whatever publishes meanwhile.
    // A publication of new weights moves every later stamp into a
    // fresh key space, so a post-swap request never hits a pre-swap
    // entry.
    const std::shared_ptr<const WeightSnapshot> live = registry_.latest();
    request.modelVersion = live->version;
    if (solveCache_ == nullptr)
        return;
    const Hash128 digest = combineDigests(configDigest_, live->paramsDigest);
    if (options_.cache.exactCapacity > 0) {
        StreamHasher hasher;
        hasher.update(digest.hi);
        hasher.update(digest.lo);
        hashTensorInto(hasher, request.input);
        request.cacheKey = hasher.digest();
    }
    if (options_.cache.warmCapacity > 0) {
        // Mixed with the weights' digest so two servers' (or two
        // versions') signature spaces do not alias; 0 stays the "no
        // signature" sentinel.
        request.warmSig = mix64(
            coarseSignature(request.input, options_.cache.signatureQuantum) ^
            digest.lo);
    }
}

Hash128
InferenceServer::modelDigest() const
{
    if (solveCache_ == nullptr)
        return Hash128{}; // caching off: requests carry no key
    return combineDigests(configDigest_, registry_.latest()->paramsDigest);
}

void
InferenceServer::maybeSwapReplica(std::size_t worker_id)
{
    Worker &worker = *workers_[worker_id];
    if (registry_.latestVersion() == worker.replicaVersion)
        return;
    const std::shared_ptr<const WeightSnapshot> snap = registry_.latest();
    TraceSpan span("model.swap", "serve");
    span.arg("worker", static_cast<double>(worker_id));
    span.arg("version", static_cast<double>(snap->version));
    ModelRegistry::applyTo(*snap, *worker.model);
    worker.replicaVersion = snap->version;
    registry_.noteSwapApplied();
}

void
InferenceServer::deliverTerminal(std::promise<InferResponse> &promise,
                                 InferResponse response, bool train)
{
    if (!train) {
        response.completionIndex = nextCompletionIndex_.fetch_add(1);
        metrics_.recordCompletion(response);
    }
    promise.set_value(std::move(response));
}

void
InferenceServer::deliverCacheHit(std::size_t worker_id, QueueEntry &entry,
                                 Tensor value)
{
    const auto now = RuntimeClock::now();
    InferResponse response;
    response.id = entry.request.id;
    response.queueWaitMs = toMs(now - entry.enqueueTime);
    response.totalMs = response.queueWaitMs;
    response.workerId = worker_id;
    // A cached value is the stamped version's bytes by construction
    // (the key embeds that snapshot's digest).
    response.modelVersion = entry.request.modelVersion;
    if (now > entry.request.deadline) {
        // Same terminal status the request would have received from the
        // queue: a hit or follower whose deadline lapsed before its
        // delivery is DeadlineExceeded, not Ok-but-late — the cached
        // value does not buy back deadline enforcement.
        response.status = RequestStatus::DeadlineExceeded;
        response.deadlineMet = false;
    } else {
        TraceSpan span("request.cache_hit", "serve");
        span.arg("id", static_cast<double>(entry.request.id));
        response.status = RequestStatus::Ok;
        response.cacheHit = true;
        response.output = std::move(value);
        response.deadlineMet = true;
    }
    deliverTerminal(entry.promise, std::move(response));
}

void
InferenceServer::redispatchFollowers(std::vector<QueueEntry> followers)
{
    // Each follower is stamped again and admitted again through the
    // same lookup: the first owns the live version's key and queues,
    // the rest attach to it (or hit, if an identical request published
    // meanwhile). Stamping again matters when the owner failed because
    // a publication moved the replicas past its stamp: its followers
    // then share one live-version key, and one solve serves them all.
    // An owner the queue refuses (closed at shutdown, or full) is
    // cancelled — the backpressure verdict it would have received at
    // admission — and its registration is retracted; whoever attached
    // to it joins this sweep.
    for (std::size_t i = 0; i < followers.size(); i++) {
        QueueEntry f = std::move(followers[i]);
        stamp(f.request);
        Tensor hit;
        switch (solveCache_->lookupOrAttach(f.request.cacheKey, f, hit)) {
          case SolveCache::Lookup::Hit:
            deliverCacheHit(0, f, std::move(hit));
            continue;
          case SolveCache::Lookup::Attached:
            continue;
          case SolveCache::Lookup::Owner:
            break;
        }
        if (queue_.tryPush(f))
            continue;
        for (QueueEntry &g : solveCache_->publishFailure(f.request.cacheKey))
            followers.push_back(std::move(g));
        endUnsolved(f, RequestStatus::Cancelled);
    }
}

void
InferenceServer::endUnsolved(QueueEntry &entry, RequestStatus status)
{
    InferResponse response;
    response.id = entry.request.id;
    response.status = status;
    response.queueWaitMs = toMs(RuntimeClock::now() - entry.enqueueTime);
    response.totalMs = response.queueWaitMs;
    deliverTerminal(entry.promise, std::move(response),
                    entry.request.train != nullptr);
}

void
InferenceServer::retractPending(const InferRequest &request)
{
    if (solveCache_ == nullptr || !request.cacheKey.valid())
        return;
    redispatchFollowers(solveCache_->publishFailure(request.cacheKey));
}

void
InferenceServer::waitWhilePaused()
{
    std::unique_lock<std::mutex> lock(pauseMutex_);
    pauseCv_.wait(lock, [this] { return !paused_; });
}

void
InferenceServer::workerMain(std::size_t worker_id)
{
    Tracer::instance().setThreadName("worker-" +
                                     std::to_string(worker_id));
    // Kernel tiles split on the shared pool for this thread's lifetime;
    // with width 1 the scope is inert and kernels run serial inline.
    IntraOpScope intra_op(intraOpPool_.get(), intraOpWidth_);
    CollectedBatch batch;
    for (;;) {
        waitWhilePaused();
        if (!queue_.collect(batch))
            break; // closed and drained
        // Busy for the whole dispatch, a training task's yields
        // included, so the worker is counted once.
        activeWorkers_.fetch_add(1, std::memory_order_relaxed);
        serveBatch(worker_id, batch, workers_[worker_id]->slots[0]);
        activeWorkers_.fetch_sub(1, std::memory_order_relaxed);
    }
}

NodeForwardResult
InferenceServer::fallbackForward(Worker &worker, const Tensor &input)
{
    NodeModel &model = *worker.model;
    const double T = model.layerTime();
    const double dt =
        T / static_cast<double>(std::max<std::size_t>(
                1, options_.degrade.fallbackSteps));
    NodeForwardResult result;
    Tensor h = input;
    for (std::size_t i = 0; i < model.numLayers(); i++) {
        EmbeddedNetOde ode(model.net(i));
        h = integrateFixed(ode, tableau_, h, 0.0, T, dt);
        result.totalStats.fEvals += ode.evalCount();
        if (!h.isFinite()) {
            // Even the coarse fallback is poisoned: the request fails
            // rather than shipping a non-finite payload.
            result.status = SolveStatus::NonFinite;
            break;
        }
    }
    result.output = std::move(h);
    return result;
}

bool
InferenceServer::acceptsState(const Shape &state) const
{
    // Every replica has worker 0's layer configuration, and the check
    // reads nothing a solve writes, so it may run beside worker 0.
    return workers_[0]->model->acceptsState(state);
}

void
InferenceServer::shedEntry(QueueEntry &entry, double estimateMs)
{
    InferResponse response;
    response.id = entry.request.id;
    response.status = RequestStatus::Shed;
    response.deadlineMet = false;
    response.totalMs = toMs(RuntimeClock::now() - entry.enqueueTime);
    Tracer::instance().instant(
        "request.shed", "overload",
        {{"id", static_cast<double>(entry.request.id)},
         {"stream", static_cast<double>(entry.request.stream)},
         {"estimate_ms", estimateMs}});
    deliverTerminal(entry.promise, std::move(response));
}

void
InferenceServer::expireEntry(std::size_t worker_id, QueueEntry &entry)
{
    // A request whose deadline lapsed in the queue gets a structured
    // failure instead of a solve whose response could only arrive
    // late.
    retractPending(entry.request);
    InferResponse response;
    response.id = entry.request.id;
    response.status = RequestStatus::DeadlineExceeded;
    response.queueWaitMs = toMs(RuntimeClock::now() - entry.enqueueTime);
    response.totalMs = response.queueWaitMs;
    response.deadlineMet = false;
    response.workerId = worker_id;
    // An expiry is the strongest queue-delay signal the brownout
    // monitor can get: this request waited itself to death. The worker
    // sweeping it already counts itself busy.
    if (admission_ != nullptr)
        admission_->observeQueueDelay(
            response.queueWaitMs,
            std::min(1.0, static_cast<double>(activeWorkers()) /
                              static_cast<double>(workers_.size())));
    deliverTerminal(entry.promise, std::move(response));
}

void
InferenceServer::serveBatch(std::size_t worker_id, CollectedBatch &batch,
                            InFlight &flight)
{
    for (auto &entry : batch.expired)
        expireEntry(worker_id, entry);
    if (batch.entries.empty())
        return;

    // Training tasks ship solo from the queue (never coalesced);
    // route them past the inference machinery.
    if (batch.entries[0].request.train != nullptr) {
        serveTrain(worker_id, batch.entries[0], flight);
        return;
    }

    // Dispatch boundary: adopt the latest published weights before the
    // solve starts (never mid-solve — the swap touches only this
    // worker's private replica between dispatches).
    maybeSwapReplica(worker_id);
    Worker &worker = *workers_[worker_id];
    const std::size_t n = batch.entries.size();
    ENODE_ASSERT(n <= worker.controllers.size(),
                 "batch larger than the configured maxBatch");
    const auto start = RuntimeClock::now();

    // The collect and per-request queue waits are retroactive spans:
    // their extent is only known once the batch dispatches.
    Tracer &tracer = Tracer::instance();
    if (tracer.armed()) {
        TraceEvent collect;
        collect.name = "batch.collect";
        collect.category = "serve";
        collect.startNs = tracer.toNs(batch.firstPop);
        collect.durNs =
            std::max<std::int64_t>(0, tracer.toNs(start) - collect.startNs);
        collect.numArgs = 3;
        collect.args[0] = {"batch", static_cast<double>(n)};
        collect.args[1] = {"expired",
                           static_cast<double>(batch.expired.size())};
        collect.args[2] = {"worker", static_cast<double>(worker_id)};
        tracer.record(collect);
        for (auto &entry : batch.entries) {
            TraceEvent wait;
            wait.name = "request.queue_wait";
            wait.category = "serve";
            wait.startNs = tracer.toNs(entry.enqueueTime);
            wait.durNs = std::max<std::int64_t>(
                0, tracer.toNs(start) - wait.startNs);
            wait.numArgs = 2;
            wait.args[0] = {"id", static_cast<double>(entry.request.id)};
            wait.args[1] = {"stream",
                            static_cast<double>(entry.request.stream)};
            tracer.record(wait);
        }
    }
    // One serve span per dispatch, named by its seed request; the
    // ladder rungs below nest under it.
    TraceSpan serve_span("request.serve", "serve");
    serve_span.arg("id", static_cast<double>(batch.entries[0].request.id));
    serve_span.arg("batch", static_cast<double>(n));
    serve_span.arg("worker", static_cast<double>(worker_id));

    metrics_.recordBatchDispatch(n);

    // Per-sample solve inputs. Each sample gets its own deadline guard
    // (the batched solver drops a sample whose deadline passes and
    // keeps integrating the rest), and every guard shares the slot's
    // abort flag so a watchdog trip stops the whole batched solve at
    // its next accepted step.
    std::vector<Tensor> xs;
    xs.reserve(n);
    std::vector<double> queue_wait_ms(n);
    std::vector<DeadlineGuard> guard_storage(n);
    std::vector<SolveGuard *> guards(n);
    std::vector<StepController *> controllers(n);
    const double occupancy_now =
        static_cast<double>(activeWorkers()) /
        static_cast<double>(workers_.size());
    for (std::size_t i = 0; i < n; i++) {
        QueueEntry &entry = batch.entries[i];
        xs.push_back(std::move(entry.request.input));
        queue_wait_ms[i] = toMs(start - entry.enqueueTime);
        // Every dequeue feeds the brownout monitor: observed queue
        // delay plus the pool occupancy at this instant (this worker
        // counts itself — it just took work).
        if (admission_ != nullptr)
            admission_->observeQueueDelay(queue_wait_ms[i], occupancy_now);
        guard_storage[i].deadline = entry.request.deadline;
        guard_storage[i].maxFEvals = options_.degrade.maxFEvalsPerRequest;
        guard_storage[i].abortFlag = &flight.abort;
        guards[i] = &guard_storage[i];
        // Warm tier on: each sample's slot controller is its warm-start
        // decorator, armed with the schedule cached for that sample's
        // own input signature — per-sample warm-starting inside one
        // batched solve, exactly as each would warm-start solo.
        if (!worker.warm.empty()) {
            const DtSchedule *replay = nullptr;
            if (solveCache_->warmLookup(entry.request.warmSig,
                                        worker.warmScratch[i]))
                replay = &worker.warmScratch[i];
            worker.warm[i]->beginSolve(replay);
            controllers[i] = worker.warm[i].get();
        } else {
            controllers[i] = worker.controllers[i].get();
        }
    }

    // Publish every sample to the in-flight slot so the hang watchdog
    // can see (and if needed, take over) the dispatch while it solves:
    // a wedged solve is failed per sample and flagged to abort.
    flight.publish(batch.entries, start);

    // Chaos probe: a stall here models a solve wedging inside the
    // worker — the watchdog must fail the whole batch while this thread
    // sleeps, and the worker must recover afterwards.
    FaultInjector::instance().maybeStall("worker.stall");

    // Brownout level >= 1: low-priority streams solve at proactively
    // relaxed tolerance — the voluntary analogue of the ladder's rung-1
    // retry, taken before anything fails. A batched solve shares one
    // IvpOptions across its samples, so the relaxation applies only when
    // *every* sample is a low-priority stream — a mixed batch solves at
    // the configured tolerance rather than degrading a high-priority
    // rider. The ladder rungs below stay on the configured tolerance.
    IvpOptions batch_opts = options_.ivp;
    bool brownout_relaxed = admission_ != nullptr;
    for (std::size_t i = 0; brownout_relaxed && i < n; i++)
        brownout_relaxed =
            admission_->relaxTolerance(batch.entries[i].request.stream);
    if (brownout_relaxed) {
        batch_opts.tolerance *= options_.overload.brownoutToleranceFactor;
        for (std::size_t i = 0; i < n; i++)
            admission_->noteRelaxed();
        serve_span.arg("brownout_relaxed", 1.0);
    }

    // Rung 0: the configured solve, one shared f evaluation per RK trial
    // across the batch. One span per rung taken, so a trace shows
    // exactly which rungs each request climbed and what each returned.
    BatchedForwardResult fwd;
    {
        TraceSpan solve_span("request.solve", "serve");
        solve_span.arg("rung", 0.0);
        solve_span.arg("batch", static_cast<double>(n));
        fwd = worker.model->forwardBatched(xs, tableau_, controllers,
                                           batch_opts, &guards);
    }
    const double batch_solve_ms = toMs(RuntimeClock::now() - start);

    // One observation covering the whole dispatch: the cost model
    // divides by the batch size to recover per-request service time.
    if (admission_ != nullptr)
        admission_->observeSolve(shapeKeyOf(xs[0]), batch_solve_ms, n);

    // Per-sample verdicts and, for the failures, the degradation ladder
    // — one sample at a time, so a poisoned sample retries alone while
    // its batchmates' responses ship clean. A watchdog takeover stops
    // the climb: its response already won.
    const auto aborted = [&flight] {
        return flight.abort.load(std::memory_order_acquire);
    };
    bool any_ok = false;
    bool any_failed = false;
    for (std::size_t i = 0; i < n; i++) {
        QueueEntry &entry = batch.entries[i];
        IvpStats aggregate = fwd.stats[i];
        Tensor output = std::move(fwd.outputs[i]);
        SolveStatus status = fwd.status[i];
        const SolveStatus origin = status;
        std::uint32_t retries = 0;

        if (status != SolveStatus::Ok && options_.degrade.enabled &&
            !aborted()) {
            if (status == SolveStatus::NonFinite ||
                status == SolveStatus::StepUnderflow) {
                // Rung 1: one retry at relaxed tolerance — FP16 overflow
                // and minDt underflow are frequently tolerance-induced.
                TraceSpan rung_span("request.retry", "serve");
                rung_span.arg("rung", 1.0);
                rung_span.arg("id", static_cast<double>(entry.request.id));
                IvpOptions relaxed = options_.ivp;
                relaxed.tolerance *= options_.degrade.retryToleranceFactor;
                retries = 1;
                NodeForwardResult solo = worker.model->forward(
                    xs[i], tableau_, *worker.controllers[i], relaxed,
                    nullptr, &guard_storage[i]);
                aggregate.accumulate(solo.totalStats);
                status = solo.status;
                output = std::move(solo.output);
                rung_span.arg("status", static_cast<double>(status));
            }
            if (status != SolveStatus::Ok && !aborted()) {
                // Rung 2: fixed-step coarse integration. Deterministic
                // cost, no stepsize search to diverge.
                TraceSpan rung_span("request.fallback", "serve");
                rung_span.arg("rung", 2.0);
                rung_span.arg("id", static_cast<double>(entry.request.id));
                NodeForwardResult solo = fallbackForward(worker, xs[i]);
                aggregate.accumulate(solo.totalStats);
                status = solo.status;
                output = std::move(solo.output);
                rung_span.arg("status", static_cast<double>(status));
            }
        }

        const auto end = RuntimeClock::now();
        InferResponse response;
        response.id = entry.request.id;
        response.stats = aggregate;
        response.queueWaitMs = queue_wait_ms[i];
        response.solveMs =
            retries > 0 || status != origin
                ? toMs(end - start)
                : batch_solve_ms; // no ladder: the shared batch solve
        response.totalMs = toMs(end - entry.enqueueTime);
        response.deadlineMet = end <= entry.request.deadline;
        response.workerId = worker_id;
        response.retries = retries;
        response.batchSize = n;
        response.warmStarted = !worker.warm.empty() &&
                               worker.warm[i]->replayedPoints() > 0;
        response.brownoutRelaxed = brownout_relaxed;
        response.modelVersion = worker.replicaVersion;
        // The final screen: no response ever carries a non-finite value.
        if (status == SolveStatus::Ok && output.isFinite()) {
            response.status = RequestStatus::Ok;
            response.degraded = origin != SolveStatus::Ok;
            response.solveStatus = origin;
            response.output = std::move(output);
        } else {
            response.status = RequestStatus::Failed;
            // Every failure carries a non-Ok class; a non-finite payload
            // behind an Ok status (the solver screens accepted states,
            // but this screen is the last line) counts as NonFinite.
            response.solveStatus = origin != SolveStatus::Ok
                                       ? origin
                                       : status != SolveStatus::Ok
                                             ? status
                                             : SolveStatus::NonFinite;
        }

        // Deliver through the in-flight slot: the watchdog may already
        // have failed this sample while the batch was wedged, in which
        // case its response won and ours is discarded unrecorded.
        std::optional<std::promise<InferResponse>> to_deliver =
            flight.claim(i);
        const bool deliver = to_deliver.has_value();

        // Cache bookkeeping at the terminal: only a clean solve may
        // populate either tier — Ok at rung 0 and delivered by this
        // worker (not watchdog-taken), at the configured tolerance (the
        // key embeds it, so never brownout-relaxed), on the weights its
        // key and warm signature were derived from (no hot swap since
        // admission), and with no fault in play: the cache.publish probe
        // models a publish lost after the solve (probed only for keyed
        // requests, so hit counts match publish attempts), and an armed
        // injector may have healed a corrupted solve into bytes a fresh
        // solve would not reproduce. Anything else retracts the pending
        // entry so followers solve for themselves — one poisoned
        // batchmate cannot contaminate the cache for anyone.
        if (solveCache_ != nullptr) {
            const bool publish_fault =
                entry.request.cacheKey.valid() &&
                FaultInjector::instance().shouldFail("cache.publish");
            const bool clean =
                deliver && response.status == RequestStatus::Ok &&
                !response.degraded && response.retries == 0 &&
                !brownout_relaxed && !publish_fault &&
                entry.request.modelVersion == worker.replicaVersion &&
                !FaultInjector::instance().armed();
            if (entry.request.cacheKey.valid()) {
                if (clean) {
                    // Each follower gets its own copy (pooled storage).
                    for (QueueEntry &f : solveCache_->publishSuccess(
                             entry.request.cacheKey, response.output))
                        deliverCacheHit(worker_id, f, response.output);
                } else {
                    retractPending(entry.request);
                }
            }
            if (clean && !worker.warm.empty())
                solveCache_->warmInsert(entry.request.warmSig,
                                        *worker.warm[i]);
        }

        if (deliver) {
            if (response.status == RequestStatus::Ok)
                any_ok = true;
            else
                any_failed = true;
            deliverTerminal(*to_deliver, std::move(response));
        } else {
            any_failed = true; // watchdog responses are always Failed
        }
    }
    flight.retire();
    if (any_ok && any_failed)
        metrics_.recordPartialFailure();
}

void
InferenceServer::watchdogMain()
{
    Tracer::instance().setThreadName("watchdog");
    // Poll a few times per threshold, bounded so tiny thresholds do
    // not busy-spin and huge ones still notice shutdown promptly.
    const auto poll = std::chrono::milliseconds(std::min<std::int64_t>(
        20, std::max<std::int64_t>(
                1, static_cast<std::int64_t>(options_.degrade.watchdogMs /
                                             4.0))));
    std::unique_lock<std::mutex> lock(watchdogMutex_);
    while (!watchdogCv_.wait_for(lock, poll,
                                 [this] { return watchdogStop_; })) {
        const auto now = RuntimeClock::now();
        for (std::size_t i = 0; i < workers_.size(); i++)
            for (InFlight &flight : workers_[i]->slots)
                watchSlot(i, flight, now);
    }
}

void
InferenceServer::watchSlot(std::size_t worker_id, InFlight &flight,
                           RuntimeClock::time_point now)
{
    const auto threshold = std::chrono::duration<double, std::milli>(
        options_.degrade.watchdogMs);
    // One entry per sample the watchdog takes over: the whole dispatch
    // on a fresh trip, or just the stragglers if the worker raced ahead
    // delivering part of a batch.
    struct Failure
    {
        std::promise<InferResponse> promise;
        InferResponse response;
        bool train = false;
    };
    std::vector<Failure> failures;
    std::size_t batch_size = 1;
    {
        std::lock_guard<std::mutex> slot(flight.mutex);
        // A paused slot's training task is yielding: the batch it
        // yielded to is timed on the worker's other slot.
        if (flight.active && !flight.paused &&
            now - flight.start > threshold) {
            batch_size = flight.samples.size();
            for (InFlight::Sample &sample : flight.samples) {
                if (sample.delivered)
                    continue;
                sample.delivered = true;
                Failure f;
                f.promise = std::move(sample.promise);
                f.response.id = sample.id;
                f.response.queueWaitMs = sample.queueWaitMs;
                f.response.solveMs = toMs(now - flight.start);
                f.response.totalMs = sample.queueWaitMs + f.response.solveMs;
                f.response.deadlineMet = now <= sample.deadline;
                f.train = sample.train;
                failures.push_back(std::move(f));
            }
            // Cooperative kill: the solve guards see this at their next
            // step boundary and abort.
            if (!failures.empty())
                flight.abort.store(true, std::memory_order_release);
        }
    }
    if (failures.empty())
        return;
    // One trip per wedged dispatch, however many samples it carried;
    // every taken-over sample gets a full Failed response through the
    // single accounting path.
    metrics_.recordWatchdogTrip();
    ENODE_WARN("watchdog failing ", failures.size(), " request(s) on worker ",
               worker_id, " after ", failures.front().response.solveMs,
               " ms (threshold ", options_.degrade.watchdogMs, " ms)");
    for (Failure &f : failures) {
        f.response.status = RequestStatus::Failed;
        f.response.solveStatus = SolveStatus::DeadlineExceeded;
        f.response.workerId = worker_id;
        f.response.batchSize = batch_size;
        Tracer::instance().instant(
            "watchdog.trip", "serve",
            {{"id", static_cast<double>(f.response.id)},
             {"worker", static_cast<double>(worker_id)},
             {"solve_ms", f.response.solveMs}});
        // A training takeover counts the trip; the TrainingService
        // retries off the Failed status.
        deliverTerminal(f.promise, std::move(f.response), f.train);
    }
}

} // namespace enode
