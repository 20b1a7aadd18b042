#ifndef ENODE_RUNTIME_INFERENCE_SERVER_H
#define ENODE_RUNTIME_INFERENCE_SERVER_H

/**
 * @file
 * Concurrent NODE inference server.
 *
 * Turns the single-threaded NodeModel library into a servable engine:
 * a fixed pool of worker threads, each owning a *private replica* of
 * the embedded nets (weights stamped bit-identically from replica 0 at
 * startup and treated as read-only thereafter; all scratch state —
 * layer forward caches, solver controllers, eval counters — is
 * per-worker), drains a bounded MPMC request queue ordered by the same
 * SelectPolicy the hardware priority selector uses. Producers are never
 * blocked: a full queue rejects at admission (backpressure), exactly
 * like the selector's full state buffers.
 *
 * One serving path: every worker takes its next dispatch from the
 * Batcher (at maxBatch 1 a plain pop plus the deadline and cache
 * screens) and solves it with NodeModel::forwardBatched — one shared f
 * evaluation per RK trial, error control per sample. Because the
 * solvers reset each sample's StepController at every call and each
 * worker's replica is private, a request's output depends only on the
 * weights and the input — results are bitwise identical to a
 * single-threaded NodeModel::forward with the same weights, regardless
 * of worker count, batch composition or interleaving
 * (tests/test_runtime.cc and tests/test_batcher.cc prove this).
 */

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/task_pool.h"
#include "core/aca_trainer.h"
#include "core/node_model.h"
#include "ode/warm_start.h"
#include "runtime/admission.h"
#include "runtime/batcher.h"
#include "runtime/metrics.h"
#include "runtime/metrics_publisher.h"
#include "runtime/model_registry.h"
#include "runtime/request_queue.h"
#include "runtime/solve_cache.h"

namespace enode {

/** Serving solver defaults: inference-only, so per-point checkpoint
 *  recording is off — responses carry only the output and stats, and
 *  skipping the checkpoint state copies keeps each worker's solve
 *  allocation-free at steady state (per-worker model replicas hold the
 *  solver workspace; the thread-local tensor pool does the rest). */
inline IvpOptions
servingIvpDefaults()
{
    IvpOptions opts;
    opts.recordCheckpoints = false;
    return opts;
}

/**
 * Graceful-degradation policy: what the server does when a solve comes
 * back with a non-Ok SolveStatus (see DESIGN.md "Failure model &
 * degradation ladder").
 *
 * Rung 1 — NonFinite / StepUnderflow: retry once with the tolerance
 * relaxed by retryToleranceFactor (FP16 overflow and minDt underflow
 * are frequently tolerance-induced).
 * Rung 2 — any remaining failure (budgets, deadline, failed retry):
 * fixed-step coarse integration with fallbackSteps steps per layer.
 * Responses recovered by either rung are marked `degraded` with the
 * originating status; if the fallback also fails the request is Failed
 * with an empty output — a non-finite value never leaves the server.
 */
struct DegradePolicy
{
    /** Master switch; disabled means any solve failure is terminal. */
    bool enabled = true;

    /** Rung 1 tolerance multiplier for the single retry. */
    double retryToleranceFactor = 100.0;

    /** Rung 2 fixed-step fallback: steps per integration layer. */
    std::size_t fallbackSteps = 8;

    /**
     * Per-request f-evaluation budget enforced by the per-step solve
     * guard (0 = unlimited). A runaway stepsize search aborts with
     * DeadlineExceeded once the budget is spent.
     */
    std::uint64_t maxFEvalsPerRequest = 0;

    /**
     * Hang threshold in milliseconds (0 = watchdog off). A watchdog
     * thread monitors every worker's in-flight dispatch — inference
     * batch or training task; one exceeding the threshold is failed
     * immediately (status Failed for every still-pending sample, one
     * watchdog.trips tick per wedged dispatch) and its solve is
     * flagged to abort at the next accepted step, so a wedged solve
     * costs one dispatch, not a worker.
     */
    double watchdogMs = 0.0;
};

/** Server construction knobs. */
struct ServerOptions
{
    /** Worker threads (= model replicas). */
    std::size_t numWorkers = 4;

    /** Bounded queue capacity; admission rejects beyond this. */
    std::size_t queueCapacity = 256;

    /** Dispatch order, shared with the hardware sim's selector. */
    SelectPolicy policy = SelectPolicy::LaterStreamFirst;

    /** Solver options every request is served with. */
    IvpOptions ivp = servingIvpDefaults();

    /**
     * Intra-op parallelism per request: each worker's conv kernels
     * split their work this many ways on a TaskPool shared by all
     * workers (the software core ring — see common/task_pool.h). 1 =
     * serial kernels (the default). The server clamps the product
     * numWorkers * intraOpThreads to the hardware thread count so the
     * two parallelism levels never oversubscribe the machine; kernel
     * results are bitwise identical at any setting.
     */
    std::size_t intraOpThreads = 1;

    /**
     * Start with the workers gated: requests queue up but nothing
     * dispatches until resume(). Tests use this to stage contention
     * deterministically.
     */
    bool startPaused = false;

    /**
     * Cross-request micro-batching: the maximum number of compatible
     * requests (identical input shape) one worker coalesces into a
     * single batched solve (solveIvpBatched — one shared f evaluation
     * per RK trial, error control per sample). 1 = no coalescing: every
     * dispatch carries one request. A batch of any size solves each
     * request bitwise identically to NodeModel::forward.
     */
    std::size_t maxBatch = 1;

    /**
     * Collect-window budget in microseconds: once a worker has seeded
     * a batch it waits at most this long for company before solving.
     * Only meaningful when maxBatch > 1. Request deadlines still apply
     * inside the window — a request that expires while waiting is
     * failed, never solved.
     */
    double batchWaitUs = 200.0;

    /** Failure handling: retry/fallback ladder and watchdog. */
    DegradePolicy degrade;

    /**
     * Cross-solve caching for repeat traffic (runtime/solve_cache.h):
     * exact dedup + single-flight on tier 1, dt-schedule warm-starting
     * on tier 2. Off by default; enabling it changes no response's
     * correctness contract — exact hits are bitwise identical to a
     * fresh solve, warm-started solves stay within solver tolerance.
     */
    CacheOptions cache;

    /**
     * Overload control (runtime/admission.h): deadline-aware admission
     * with RequestStatus::Shed, plus the brownout ladder (proactive
     * tolerance relaxation, collect-window shrinking, low-priority
     * shedding). Off by default; when off, admission stays the blind
     * bounded-queue push.
     */
    OverloadOptions overload;

    /**
     * Arm the process-wide span tracer (common/trace_span.h) for this
     * server's lifetime: request, ladder-rung, solver-trial and
     * pipeline spans are recorded into per-thread rings and stay
     * exportable (Tracer::exportChromeTrace) after stop(). Disarmed
     * tracing costs one relaxed atomic load per probe.
     */
    bool traceEnabled = false;

    /** Per-thread trace ring capacity (events); oldest are dropped. */
    std::size_t traceRingCapacity = std::size_t{1} << 13;

    /**
     * Gauge-publisher period in milliseconds; 0 disables the
     * background publisher. When enabled, queue depth, in-flight
     * count and worker occupancy are sampled on this clock and
     * published through publisher() and metricsText().
     */
    double publishPeriodMs = 0.0;
};

/**
 * Largest intra-op width w <= requested with workers * w <= hwThreads
 * (never below 1). Pure so the oversubscription policy is testable with
 * injected hardware counts; hwThreads == 0 means "unknown" (the
 * std::thread::hardware_concurrency failure value) and disables the
 * clamp.
 */
std::size_t clampIntraOpThreads(std::size_t workers, std::size_t requested,
                                std::size_t hwThreads);

/** Concurrent inference-serving runtime over NodeModel replicas. */
class InferenceServer
{
  public:
    /** Builds one structurally identical model replica per call. */
    using ModelFactory = std::function<std::unique_ptr<NodeModel>()>;
    /** Builds one stepsize controller per batch slot of each worker. */
    using ControllerFactory =
        std::function<std::unique_ptr<StepController>()>;

    /**
     * @param make_model Called numWorkers times (sequentially, on the
     *        constructing thread). Replica 0 acts as the weight master:
     *        every other replica's parameters are overwritten with
     *        replica 0's, so all workers serve bit-identical weights
     *        even if the factory is not deterministic.
     * @param options Pool/queue/solver configuration.
     * @param make_controller Stepsize controller per batch slot (and
     *        per training replica); defaults to FixedFactorController.
     *        Controllers are reset by the solver at every request, so
     *        the choice affects cost, not determinism.
     */
    InferenceServer(ModelFactory make_model, ServerOptions options,
                    ControllerFactory make_controller = {});

    /** Drains and joins (stop(true)) if still running. */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /** Outcome of submit(): admission verdict + completion channel. */
    struct Submission
    {
        /** False when the queue was full (backpressure) or the server
         *  stopped; `result` is invalid in that case. */
        bool accepted = false;
        std::uint64_t id = 0;
        std::future<InferResponse> result;
    };

    /**
     * Offer one inference request. Never blocks on a full queue.
     *
     * @param input Initial NODE state h(0).
     * @param stream Priority class (higher = served earlier under
     *        LaterStreamFirst).
     * @param deadline Completion target; breaks ties within a stream
     *        and is checked against the actual completion time.
     */
    Submission submit(
        Tensor input, std::uint32_t stream = 0,
        RuntimeClock::time_point deadline = RuntimeClock::time_point::max());

    /**
     * Offer one gradient task of the training service. Training
     * entries ride the same bounded queue and worker pool as inference
     * (their stream tag and no-deadline stamp make them lose every
     * priority tie under LaterStreamFirst), but bypass the inference
     * metrics, cache, and admission layers entirely — the reconciled
     * terminal counters stay an inference-only identity. The task must
     * outlive its future; the worker writes gradients into the task's
     * fixed slot and answers Ok/Failed through the future. Never
     * blocks; accepted=false on a full queue (the service retries).
     */
    Submission submitTrainTask(TrainTask &task);

    /** Release workers gated by ServerOptions::startPaused. */
    void resume();

    /**
     * Stop serving. With drain=true (default) queued requests are
     * completed first; with drain=false they are failed with status
     * Cancelled. In-flight requests always run to completion. Safe to
     * call more than once.
     */
    void stop(bool drain = true);

    const MetricsRegistry &metrics() const { return metrics_; }
    const RequestQueue &queue() const { return queue_; }
    std::size_t numWorkers() const { return workers_.size(); }

    /** Background gauge sampler; null unless publishPeriodMs > 0. */
    const MetricsPublisher *publisher() const { return publisher_.get(); }

    /** Workers serving a dispatch right now (publisher gauge source). */
    std::size_t activeWorkers() const
    {
        return activeWorkers_.load(std::memory_order_relaxed);
    }

    /**
     * Prometheus text exposition of the full observable state: the
     * metrics registry snapshot, queue counters, and (when the
     * publisher runs) sampled gauges.
     */
    std::string metricsText() const;

    /** Effective intra-op width after the oversubscription clamp. */
    std::size_t intraOpThreads() const { return intraOpWidth_; }

    /** The tableau requests are integrated with (RK23, as the paper). */
    const ButcherTableau &tableau() const { return tableau_; }

    /** The solve cache; null unless ServerOptions::cache.enabled. */
    const SolveCache *solveCache() const { return solveCache_.get(); }

    /** Overload controller; null unless ServerOptions::overload.enabled. */
    const AdmissionController *admission() const { return admission_.get(); }

    /** Digest of (weights, solver config) every cache key embeds,
     *  for the *live* registry version; invalid when caching is off.
     *  Exposed for key-stability tests — after a weight hot swap the
     *  value changes, which is exactly what keeps post-swap requests
     *  from hitting pre-swap cache entries. */
    Hash128 modelDigest() const;

    /**
     * The versioned weight store. The training service publishes new
     * versions through it; workers hot-swap their private replicas to
     * the latest version at dispatch boundaries (never mid-solve).
     */
    ModelRegistry &registry() { return registry_; }
    const ModelRegistry &registry() const { return registry_; }

  private:
    struct Worker
    {
        std::unique_ptr<NodeModel> model;
        /**
         * One controller per batch slot (sized maxBatch): the batched
         * solver drives each sample's stepsize search with its own
         * controller, exactly as a solo solve would, so batch
         * composition cannot perturb a sample's steps. Slot i's
         * controller also runs sample i's rung-1 retry.
         */
        std::vector<std::unique_ptr<StepController>> controllers;
        /**
         * Warm-start decorators over the slot controllers, present only
         * when the cache's warm tier is on. Rung-0 solves run through
         * the decorator (replay + record); ladder rungs use the wrapped
         * controller directly.
         */
        std::vector<std::unique_ptr<WarmStartController>> warm;
        /** Replay buffers the decorators copy cached schedules into
         *  (per slot, reused across requests — no steady-state alloc). */
        std::vector<DtSchedule> warmScratch;
        /** Registry version the serving replica currently holds. */
        std::uint64_t replicaVersion = 0;
        /**
         * Private training replica, built lazily on the first training
         * task this worker serves (inference-only servers never pay
         * for it). Separate from the serving replica so a training
         * solve's scratch state (layer caches, checkpoints) can never
         * perturb concurrent inference, and so the training weights —
         * synced per step from the task's snapshot — are decoupled
         * from whatever version the serving replica has swapped to.
         */
        std::unique_ptr<NodeModel> trainModel;
        std::unique_ptr<StepController> trainController;
        /** ACA backward buffers, persistent across training tasks. */
        AcaWorkspace acaWs;
        /** Step whose weights trainModel currently holds (~0 = none). */
        std::uint64_t trainStep = ~std::uint64_t{0};
        std::thread thread;
    };

    /**
     * Per-worker in-flight work slot, shared between the worker and
     * the watchdog. One slot covers one dispatch — every request of an
     * inference batch, or one training task — so the hang watchdog
     * protects both identically. Exactly one of worker/watchdog
     * delivers each sample's response: the first to flip that sample's
     * `delivered` flag under the slot mutex owns its promise. `abort`
     * is the cooperative kill switch the solve guards poll (one shared
     * flag: a wedged batched solve is one wedged thread, so the whole
     * dispatch aborts together).
     */
    struct InFlight
    {
        /** One response channel; a batch of n publishes n of these. */
        struct Sample
        {
            std::promise<InferResponse> promise;
            bool delivered = false; ///< its response has been set
            std::uint64_t id = 0;
            /**
             * Must default to "no deadline" exactly like
             * InferRequest::deadline. A value-initialized time_point is
             * the clock epoch, which made the watchdog's deadlineMet
             * check read a stale epoch deadline as "missed" for any
             * slot that tripped before its first publish.
             */
            RuntimeClock::time_point deadline =
                RuntimeClock::time_point::max();
            double queueWaitMs = 0.0;
            /**
             * Training-task sample: the watchdog still protects it (a
             * wedged training solve is failed and aborted like any
             * other), but its terminal must NOT feed the inference
             * metrics — training entries are never recordAdmitted, so
             * counting their completions would break the reconciled
             * admitted == completed + ... identity.
             */
            bool train = false;
        };

        std::mutex mutex;
        bool active = false; ///< a solve is running right now
        RuntimeClock::time_point start{};
        std::vector<Sample> samples;
        std::atomic<bool> abort{false};

        /**
         * Hand the watchdog a dispatch started at `when`: one sample
         * per entry, each entry's promise moved into its sample.
         */
        void publish(std::span<QueueEntry> entries,
                     RuntimeClock::time_point when);
        /**
         * Take sample i's promise for delivery. False when the watchdog
         * already answered it (its response won; discard ours).
         */
        bool claim(std::size_t i, std::promise<InferResponse> &out);
        /** The dispatch is over: the watchdog stops watching it. */
        void retire();
    };

    void workerMain(std::size_t worker_id);
    /** A fresh stepsize controller from the factory (or the default). */
    std::unique_ptr<StepController> makeController() const;
    /**
     * Serve one gradient task: sync the worker's training replica to
     * the task's weight snapshot, run forward + ACA backward, write
     * the gradients into the task's fixed slot, answer Ok/Failed.
     */
    void serveTrain(std::size_t worker_id, QueueEntry &entry);
    /**
     * Dispatch-boundary hot swap: if the registry has published past
     * the worker's replica version, overwrite the replica's weights
     * with the latest snapshot. Called only between solves on the
     * worker's own thread, so in-flight requests are never touched; a
     * request admitted against an older version is still served (on
     * the newer weights) but its solve can no longer publish into the
     * cache, whose key embeds the admission-time version digest.
     */
    void maybeSwapReplica(std::size_t worker_id);
    /**
     * Cache-identity digest for a registry version: the solver-config
     * digest combined with the snapshot's parameter digest. The
     * version *number* is deliberately not mixed in — two versions
     * with bitwise-identical weights produce identical outputs and
     * should share cache entries. Cached per version under a mutex
     * (workers and the admission path race on it).
     */
    Hash128 digestFor(std::uint64_t version) const;
    /**
     * Answer `entry` with a copy of the cached `value` (exact-tier
     * hit or single-flight follower delivery): full Ok response with
     * cacheHit set, zero solver stats, routed through the single
     * accounting path. A lapsed deadline turns the response into
     * DeadlineExceeded — the same terminal the request would have
     * received from the queue.
     */
    void deliverCacheHit(std::size_t worker_id, QueueEntry &entry,
                         Tensor value);
    /**
     * A pending solve failed: push its followers back into the queue
     * to be solved as ordinary requests; followers the (closing) queue
     * refuses are Cancelled.
     */
    void redispatchFollowers(std::vector<QueueEntry> followers);
    /**
     * Terminal bookkeeping for a keyed request that did not produce a
     * cacheable value (expired / failed / degraded / cancelled /
     * watchdog-taken): retract its pending entry and re-dispatch the
     * followers. No-op for unkeyed requests.
     */
    void retractPending(const InferRequest &request);
    /**
     * Serve one dispatch from the batcher — the only serve path: fail
     * the expired entries, answer the cache hits, hand a training task
     * to serveTrain, otherwise run the batched solve (any size >= 1)
     * and walk the degradation ladder per failing sample (its
     * batchmates are unaffected).
     */
    void serveBatch(std::size_t worker_id, CollectedBatch &batch);
    /** Fail a request whose deadline lapsed before it was solved. */
    void expireEntry(std::size_t worker_id, QueueEntry &entry);
    /**
     * Terminal RequestStatus::Shed response for a request refused by
     * admission control: full accounting through recordCompletion, the
     * promise fulfilled immediately, nothing ever queued.
     */
    void shedEntry(QueueEntry &entry, double estimateMs);
    /** Rung 2: fixed-step coarse integration of every layer. */
    NodeForwardResult fallbackForward(Worker &worker, const Tensor &input);
    void watchdogMain();
    void waitWhilePaused();

    ServerOptions options_;
    ButcherTableau tableau_;
    RequestQueue queue_;
    /** Coalescing stage between the queue and the workers; every
     *  dispatch comes out of it. */
    std::unique_ptr<Batcher> batcher_;
    /** Two-tier cross-solve cache; null when cache.enabled is false. */
    std::unique_ptr<SolveCache> solveCache_;
    /** Overload controller; null when overload.enabled is false. */
    std::unique_ptr<AdmissionController> admission_;
    /** Versioned weight snapshots (seeded with version 0 at build). */
    ModelRegistry registry_;
    /** Solver-config half of the cache digest (weights live in the
     *  registry snapshots); valid only when caching is on. */
    Hash128 configDigest_;
    /** digestFor() memo: one entry, keyed by version. */
    mutable std::mutex digestMutex_;
    mutable std::uint64_t digestVersion_ = ~std::uint64_t{0};
    mutable Hash128 digestCache_;
    /** Factories kept for lazily building per-worker training replicas. */
    ModelFactory modelFactory_;
    ControllerFactory controllerFactory_;
    /** Training-path counters (outside MetricsRegistry by design). */
    std::atomic<std::uint64_t> trainTasks_{0};
    std::atomic<std::uint64_t> trainTaskFailures_{0};
    MetricsRegistry metrics_;
    std::vector<std::unique_ptr<Worker>> workers_;

    /** Post-clamp kernel split width every worker runs at. */
    std::size_t intraOpWidth_ = 1;
    /** Shared kernel-tile pool: numWorkers * (width - 1) threads, so
     *  running threads stay bounded even when all workers compute. */
    std::unique_ptr<TaskPool> intraOpPool_;

    /** One slot per worker; index-aligned with workers_. */
    std::vector<std::unique_ptr<InFlight>> inflight_;
    std::unique_ptr<MetricsPublisher> publisher_;
    std::atomic<std::size_t> activeWorkers_{0};
    std::thread watchdog_;
    std::mutex watchdogMutex_;
    std::condition_variable watchdogCv_;
    bool watchdogStop_ = false;

    std::mutex pauseMutex_;
    std::condition_variable pauseCv_;
    bool paused_ = false;

    std::atomic<std::uint64_t> nextRequestId_{0};
    std::atomic<std::uint64_t> nextCompletionIndex_{0};
    std::atomic<bool> stopped_{false};
};

} // namespace enode

#endif // ENODE_RUNTIME_INFERENCE_SERVER_H
