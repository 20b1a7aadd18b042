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
    }
    ENODE_PANIC("unknown RequestStatus");
}

InferenceServer::InferenceServer(ModelFactory make_model,
                                 ServerOptions options,
                                 ControllerFactory make_controller)
    : options_(options), tableau_(ButcherTableau::rk23()),
      queue_(options.queueCapacity, options.policy),
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
    ENODE_ASSERT(options_.maxBatch >= 1, "maxBatch must be >= 1");
    ENODE_ASSERT(options_.batchWaitUs >= 0.0,
                 "batchWaitUs must be >= 0");
    if (options_.cache.enabled)
        solveCache_ = std::make_unique<SolveCache>(options_.cache);
    // The controller exists before the batcher so the batcher can scale
    // its collect window off the live brownout level.
    if (options_.overload.enabled)
        admission_ = std::make_unique<AdmissionController>(
            options_.overload, options_.numWorkers);
    // Every dispatch comes out of the batcher; at maxBatch 1 it is a
    // plain pop plus the deadline and cache screens.
    batcher_ = std::make_unique<Batcher>(queue_, options_.maxBatch,
                                         options_.batchWaitUs,
                                         solveCache_.get(), admission_.get());

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
    inflight_.reserve(options_.numWorkers);
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
        inflight_.push_back(std::make_unique<InFlight>());
    }

    // Replica 0 is the weight master: stamp its parameters into every
    // other replica so all workers serve bit-identical weights. The
    // master is only read; each replica is its worker's private
    // scratch space from here on.
    for (std::size_t i = 1; i < workers_.size(); i++)
        workers_[i]->model->syncParametersFrom(*workers_[0]->model);

    // The construction weights become registry version 0; every worker
    // replica starts there (Worker::replicaVersion's default). The
    // training service publishes versions 1, 2, ... through publish().
    registry_.seed(*workers_[0]->model);

    // Solver-config digest every cache key embeds: everything a
    // response's bytes depend on *except* the weights, which live in
    // the registry snapshots (their digest is combined per version in
    // digestFor). Two servers agree on a key only when a fresh solve
    // would produce identical outputs.
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
    // Admission-version stamp: the registry version this request is
    // keyed against. Workers may serve it on a newer replica after a
    // hot swap, but its cache identity — and the batcher's refusal to
    // coalesce across versions — follows this stamp.
    entry.request.modelVersion = registry_.latestVersion();
    entry.enqueueTime = RuntimeClock::now();

    const std::uint64_t id = entry.request.id;
    std::future<InferResponse> future = entry.promise.get_future();

    if (solveCache_ != nullptr) {
        // Stamp the cache identities onto the request, then try the
        // exact tier right here on the admission path: a ready value
        // answers without ever touching the queue, and an in-flight
        // identical solve absorbs this request as a follower. The
        // digest is per registry version, so a weight hot swap moves
        // new admissions into a fresh key space — a post-swap request
        // can never hit a pre-swap entry.
        const Hash128 version_digest =
            digestFor(entry.request.modelVersion);
        if (options_.cache.exactCapacity > 0) {
            StreamHasher hasher;
            hasher.update(version_digest.hi);
            hasher.update(version_digest.lo);
            hashTensorInto(hasher, entry.request.input);
            entry.request.cacheKey = hasher.digest();
        }
        if (options_.cache.warmCapacity > 0) {
            // Mixed with the version digest so two servers' (or two
            // versions') signature spaces do not alias; 0 stays the
            // "no signature" sentinel.
            entry.request.warmSig = mix64(
                coarseSignature(entry.request.input,
                                options_.cache.signatureQuantum) ^
                version_digest.lo);
        }
        if (entry.request.cacheKey.valid()) {
            Tensor hit;
            switch (solveCache_->lookupOrAttach(entry.request.cacheKey,
                                                entry, hit)) {
              case SolveCache::Lookup::Hit:
                metrics_.recordAdmitted();
                deliverCacheHit(0, entry, std::move(hit));
                sub.accepted = true;
                sub.id = id;
                sub.result = std::move(future);
                return sub;
              case SolveCache::Lookup::Attached:
                // The entry (promise included) now rides the pending
                // solve; the owner's publish will fulfil it.
                metrics_.recordAdmitted();
                sub.accepted = true;
                sub.id = id;
                sub.result = std::move(future);
                return sub;
              case SolveCache::Lookup::Miss:
                break; // queue and own the solve
            }
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
            shedEntry(entry, verdict.estimateMs);
            sub.accepted = true;
            sub.id = id;
            sub.result = std::move(future);
            return sub;
        }
    }

    const Hash128 key = entry.request.cacheKey; // survives the push
    // Announce ownership BEFORE the entry becomes visible to workers.
    // In the reverse order a worker can pop the entry and terminate it
    // uncacheably (lapsed deadline, failed solve) before registration
    // runs; that terminal's retraction finds nothing, and the late
    // registration then installs a pending entry with no solve behind
    // it — every later identical request would attach to it and hang.
    // Registering first closes that window: once the entry is queued,
    // any terminal path can see (and retract) the registration. A
    // `false` return means another identical request already owns the
    // key — harmless; both solve, both publish.
    const bool registered = key.valid() && solveCache_->registerPending(key);
    if (!queue_.tryPush(entry)) {
        // The push was refused, so our registration has no solve behind
        // it: retract it. Followers that attached inside the tiny
        // registration window get the same backpressure verdict this
        // request is getting (re-queued if room appeared, else
        // cancelled).
        if (registered)
            redispatchFollowers(solveCache_->publishFailure(key));
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
    // No deadline: under LaterStreamFirst a max() deadline loses every
    // tie within the stream, so training dispatches only when no
    // inference request of equal or higher priority is waiting.
    entry.request.input = task.input; // copy: the task survives retries
    entry.request.train = &task;
    entry.request.modelVersion = task.weights->version;
    entry.enqueueTime = RuntimeClock::now();

    const std::uint64_t id = entry.request.id;
    std::future<InferResponse> future = entry.promise.get_future();

    // Deliberately no metrics, cache, or admission interaction: the
    // inference terminal counters reconcile over inference admissions
    // only, and gradient solves are never cacheable (they mutate
    // gradient state, not just produce an output).
    if (!queue_.tryPush(entry))
        return sub; // backpressure: the service retries on its clock
    sub.accepted = true;
    sub.id = id;
    sub.result = std::move(future);
    return sub;
}

void
InferenceServer::serveTrain(std::size_t worker_id, QueueEntry &entry)
{
    Worker &worker = *workers_[worker_id];
    InFlight &flight = *inflight_[worker_id];
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

    // Publish to the in-flight slot (train-flagged) so the watchdog
    // aborts a wedged training solve exactly like an inference one —
    // without feeding the inference metrics on takeover.
    flight.publish({&entry, 1}, start);

    activeWorkers_.fetch_add(1, std::memory_order_relaxed);

    // No deadline and no f-eval budget — training has all the time the
    // scheduler gives it — but the watchdog's abort flag still guards
    // against a wedged solve costing a worker.
    DeadlineGuard guard;
    guard.abortFlag = &flight.abort;

    TrainStepResult result = regressionTrainStep(
        *worker.trainModel, entry.request.input, task.target, tableau_,
        *worker.trainController, task.ivp, nullptr, &worker.acaWs, &guard);

    bool ok = result.forwardStatus == SolveStatus::Ok;
    if (ok) {
        // Harvest the gradients into the task's fixed slot. A
        // non-finite gradient fails the task: the service's reduction
        // must never ingest NaNs into the master weights.
        const auto slots = worker.trainModel->paramSlots();
        auto &grads = *task.grads;
        ENODE_ASSERT(grads.size() == slots.size(),
                     "train task grad slot count mismatch");
        for (std::size_t s = 0; s < slots.size() && ok; s++) {
            if (!slots[s].grad->isFinite())
                ok = false;
            else
                grads[s].copyFrom(*slots[s].grad);
        }
        task.loss = result.loss;
        task.forwardStats = result.forwardStats;
        task.backwardStats = result.backwardStats;
    }
    task.forwardStatus = result.forwardStatus;

    activeWorkers_.fetch_sub(1, std::memory_order_relaxed);

    const auto end = RuntimeClock::now();
    InferResponse response;
    response.id = entry.request.id;
    response.status = ok ? RequestStatus::Ok : RequestStatus::Failed;
    response.solveStatus =
        ok ? SolveStatus::Ok
           : (result.forwardStatus != SolveStatus::Ok
                  ? result.forwardStatus
                  : SolveStatus::NonFinite);
    response.queueWaitMs = toMs(start - entry.enqueueTime);
    response.solveMs = toMs(end - start);
    response.totalMs = toMs(end - entry.enqueueTime);
    response.workerId = worker_id;
    response.modelVersion = task.weights->version;
    span.arg("status", static_cast<double>(response.status));

    if (!ok)
        trainTaskFailures_.fetch_add(1, std::memory_order_relaxed);

    // Deliver through the slot: the watchdog may have taken this task
    // over while it was wedged (its Failed response wins). Training
    // terminals never touch recordCompletion — see Sample::train.
    std::promise<InferResponse> to_deliver;
    const bool deliver = flight.claim(0, to_deliver);
    flight.retire();
    if (deliver)
        to_deliver.set_value(std::move(response));
}

void
InferenceServer::InFlight::publish(std::span<QueueEntry> entries,
                                   RuntimeClock::time_point when)
{
    std::lock_guard<std::mutex> lock(mutex);
    samples.clear();
    samples.resize(entries.size());
    for (std::size_t i = 0; i < entries.size(); i++) {
        QueueEntry &entry = entries[i];
        Sample &sample = samples[i];
        sample.promise = std::move(entry.promise);
        sample.id = entry.request.id;
        sample.deadline = entry.request.deadline;
        sample.queueWaitMs = toMs(when - entry.enqueueTime);
        sample.train = entry.request.train != nullptr;
    }
    active = true;
    start = when;
    abort.store(false, std::memory_order_relaxed);
}

bool
InferenceServer::InFlight::claim(std::size_t i,
                                 std::promise<InferResponse> &out)
{
    std::lock_guard<std::mutex> lock(mutex);
    Sample &sample = samples[i];
    if (sample.delivered)
        return false;
    sample.delivered = true;
    out = std::move(sample.promise);
    return true;
}

void
InferenceServer::InFlight::retire()
{
    std::lock_guard<std::mutex> lock(mutex);
    active = false;
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

    const auto cancelEntry = [this](QueueEntry &entry) {
        // A full Cancelled response through recordCompletion — the
        // single terminal-state accounting path — so admitted ==
        // completed + expired + failed + cancelled holds exactly.
        InferResponse response;
        response.id = entry.request.id;
        response.status = RequestStatus::Cancelled;
        response.queueWaitMs = toMs(RuntimeClock::now() - entry.enqueueTime);
        response.totalMs = response.queueWaitMs;
        // Gradient tasks never passed recordAdmitted, so they must not
        // reach recordCompletion either — the TrainingService sees the
        // Cancelled status through its future and gives up the step.
        if (entry.request.train == nullptr) {
            response.completionIndex = nextCompletionIndex_.fetch_add(1);
            metrics_.recordCompletion(response);
        }
        entry.promise.set_value(std::move(response));
    };

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
        cancelEntry(entry);
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
            cancelEntry(f);
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
    queue_stats.set("queue.rejected",
                    static_cast<double>(queue_.rejected()));
    queue_stats.set("queue.closed_rejected",
                    static_cast<double>(queue_.closedRejected()));
    text += prometheusText(queue_stats);
    if (solveCache_ != nullptr)
        text += prometheusText(solveCache_->snapshot());
    if (admission_ != nullptr)
        text += prometheusText(admission_->snapshot());
    if (publisher_ != nullptr)
        text += prometheusText(publisher_->snapshot());
    text += prometheusText(registry_.snapshotStats());
    StatGroup train_stats("train");
    train_stats.set("train.tasks", static_cast<double>(trainTasks_.load(
                                       std::memory_order_relaxed)));
    train_stats.set("train.task_failures",
                    static_cast<double>(trainTaskFailures_.load(
                        std::memory_order_relaxed)));
    text += prometheusText(train_stats);
    return text;
}

Hash128
InferenceServer::digestFor(std::uint64_t version) const
{
    if (!configDigest_.valid())
        return Hash128{}; // caching off: requests carry no key
    {
        std::lock_guard<std::mutex> lock(digestMutex_);
        if (digestVersion_ == version)
            return digestCache_;
    }
    auto snap = registry_.at(version);
    if (snap == nullptr)
        snap = registry_.latest(); // evicted: the live one is what serves
    // Plain combination of the two digests; the version *number* is
    // deliberately absent so republished identical bytes keep their
    // cache identity.
    Hash128 digest;
    digest.hi = mix64(configDigest_.hi ^ snap->paramsDigest.hi);
    digest.lo = mix64(configDigest_.lo ^ snap->paramsDigest.lo);
    {
        std::lock_guard<std::mutex> lock(digestMutex_);
        digestVersion_ = version;
        digestCache_ = digest;
    }
    return digest;
}

Hash128
InferenceServer::modelDigest() const
{
    return digestFor(registry_.latestVersion());
}

void
InferenceServer::maybeSwapReplica(std::size_t worker_id)
{
    Worker &worker = *workers_[worker_id];
    const std::uint64_t live = registry_.latestVersion();
    if (live == worker.replicaVersion)
        return;
    auto snap = registry_.at(live);
    if (snap == nullptr)
        snap = registry_.latest(); // `live` evicted by an even newer publish
    TraceSpan span("model.swap", "serve");
    span.arg("worker", static_cast<double>(worker_id));
    span.arg("version", static_cast<double>(snap->version));
    ModelRegistry::applyTo(*snap, *worker.model);
    worker.replicaVersion = snap->version;
    registry_.noteSwapApplied();
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
    // A cached value is the admission version's bytes by construction
    // (the key embeds that version's digest).
    response.modelVersion = entry.request.modelVersion;
    response.completionIndex = nextCompletionIndex_.fetch_add(1);
    if (now > entry.request.deadline) {
        // Same terminal status the request would have received from the
        // queue: a follower (or queued hit) whose deadline lapsed while
        // it waited is DeadlineExceeded, not Ok-but-late — the cached
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
    metrics_.recordCompletion(response);
    entry.promise.set_value(std::move(response));
}

void
InferenceServer::redispatchFollowers(std::vector<QueueEntry> followers)
{
    for (QueueEntry &f : followers) {
        // Back into the queue as an ordinary request: it solves for
        // itself and publishes its own outcome. A queue that refuses
        // (closed at shutdown, or full) cancels the request — the
        // backpressure verdict it would have received at admission.
        if (queue_.tryPush(f))
            continue;
        InferResponse response;
        response.id = f.request.id;
        response.status = RequestStatus::Cancelled;
        response.queueWaitMs = toMs(RuntimeClock::now() - f.enqueueTime);
        response.totalMs = response.queueWaitMs;
        response.completionIndex = nextCompletionIndex_.fetch_add(1);
        metrics_.recordCompletion(response);
        f.promise.set_value(std::move(response));
    }
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
        if (!batcher_->collect(batch))
            break; // closed and drained (stash included)
        serveBatch(worker_id, batch);
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

void
InferenceServer::shedEntry(QueueEntry &entry, double estimateMs)
{
    InferResponse response;
    response.id = entry.request.id;
    response.status = RequestStatus::Shed;
    response.deadlineMet = false;
    response.totalMs = toMs(RuntimeClock::now() - entry.enqueueTime);
    response.completionIndex = nextCompletionIndex_.fetch_add(1);
    Tracer::instance().instant(
        "request.shed", "overload",
        {{"id", static_cast<double>(entry.request.id)},
         {"stream", static_cast<double>(entry.request.stream)},
         {"estimate_ms", estimateMs}});
    metrics_.recordCompletion(response);
    entry.promise.set_value(std::move(response));
}

void
InferenceServer::expireEntry(std::size_t worker_id, QueueEntry &entry)
{
    // A request whose deadline lapsed in the queue or inside the
    // batcher's collect window gets a structured failure instead of a
    // solve whose response could only arrive late.
    retractPending(entry.request);
    InferResponse response;
    response.id = entry.request.id;
    response.status = RequestStatus::DeadlineExceeded;
    response.queueWaitMs = toMs(RuntimeClock::now() - entry.enqueueTime);
    response.totalMs = response.queueWaitMs;
    response.deadlineMet = false;
    response.workerId = worker_id;
    response.completionIndex = nextCompletionIndex_.fetch_add(1);
    // An expiry is the strongest queue-delay signal the brownout
    // monitor can get: this request waited itself to death. The worker
    // sweeping it counts as busy, as in serveBatch.
    if (admission_ != nullptr)
        admission_->observeQueueDelay(
            response.queueWaitMs,
            std::min(1.0, static_cast<double>(activeWorkers() + 1) /
                              static_cast<double>(workers_.size())));
    metrics_.recordCompletion(response);
    entry.promise.set_value(std::move(response));
}

void
InferenceServer::serveBatch(std::size_t worker_id, CollectedBatch &batch)
{
    for (auto &entry : batch.expired)
        expireEntry(worker_id, entry);
    // Requests the batcher answered from the exact cache at its screen
    // (the value was copied under the shard lock there).
    for (auto &hit : batch.cacheHits)
        deliverCacheHit(worker_id, hit.entry, std::move(hit.value));
    if (batch.entries.empty())
        return;

    // Training tasks ship solo from the batcher (never coalesced, no
    // collect window); route them past the inference machinery.
    if (batch.entries[0].request.train != nullptr) {
        serveTrain(worker_id, batch.entries[0]);
        return;
    }

    // Dispatch boundary: adopt the latest published weights before the
    // solve starts (never mid-solve — the swap touches only this
    // worker's private replica between dispatches).
    maybeSwapReplica(worker_id);
    Worker &worker = *workers_[worker_id];
    InFlight &flight = *inflight_[worker_id];
    const std::size_t n = batch.entries.size();
    ENODE_ASSERT(n <= worker.controllers.size(),
                 "batch larger than the configured maxBatch");
    const auto start = RuntimeClock::now();

    // The collect window and per-request queue waits are retroactive
    // spans: their extent is only known once the batch dispatches.
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
    metrics_.recordCoalesceWait(batch.collectWaitMs);

    activeWorkers_.fetch_add(1, std::memory_order_relaxed);

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
        std::promise<InferResponse> to_deliver;
        const bool deliver = flight.claim(i, to_deliver);

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
            response.completionIndex = nextCompletionIndex_.fetch_add(1);
            metrics_.recordCompletion(response);
            to_deliver.set_value(std::move(response));
        } else {
            any_failed = true; // watchdog responses are always Failed
        }
    }
    flight.retire();
    if (any_ok && any_failed)
        metrics_.recordPartialFailure();

    activeWorkers_.fetch_sub(1, std::memory_order_relaxed);
}

void
InferenceServer::watchdogMain()
{
    Tracer::instance().setThreadName("watchdog");
    const auto threshold = std::chrono::duration<double, std::milli>(
        options_.degrade.watchdogMs);
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
        for (std::size_t i = 0; i < inflight_.size(); i++) {
            InFlight &flight = *inflight_[i];
            // One entry per sample the watchdog takes over: the whole
            // dispatch on a fresh trip, or just the stragglers if the
            // worker raced ahead delivering part of a batch.
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
                if (flight.active && now - flight.start > threshold) {
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
                        f.response.totalMs =
                            sample.queueWaitMs + f.response.solveMs;
                        f.response.deadlineMet = now <= sample.deadline;
                        f.train = sample.train;
                        failures.push_back(std::move(f));
                    }
                    // Cooperative kill: the solve guards see this at
                    // their next accepted step and abort.
                    if (!failures.empty())
                        flight.abort.store(true,
                                           std::memory_order_release);
                }
            }
            if (failures.empty())
                continue;
            // One trip per wedged dispatch, however many samples it
            // carried; every taken-over sample gets a full Failed
            // response through the single accounting path.
            metrics_.recordWatchdogTrip();
            ENODE_WARN("watchdog failing ", failures.size(),
                       " request(s) on worker ", i, " after ",
                       failures.front().response.solveMs,
                       " ms (threshold ", options_.degrade.watchdogMs,
                       " ms)");
            for (Failure &f : failures) {
                f.response.status = RequestStatus::Failed;
                f.response.solveStatus = SolveStatus::DeadlineExceeded;
                f.response.workerId = i;
                f.response.batchSize = batch_size;
                Tracer::instance().instant(
                    "watchdog.trip", "serve",
                    {{"id", static_cast<double>(f.response.id)},
                     {"worker", static_cast<double>(i)},
                     {"solve_ms", f.response.solveMs}});
                // Training takeovers count the trip but stay out of the
                // inference terminal accounting (never admitted there);
                // the TrainingService retries off the Failed status.
                if (!f.train) {
                    f.response.completionIndex =
                        nextCompletionIndex_.fetch_add(1);
                    metrics_.recordCompletion(f.response);
                }
                f.promise.set_value(std::move(f.response));
            }
        }
    }
}

} // namespace enode
