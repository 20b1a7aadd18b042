#ifndef ENODE_RUNTIME_INFERENCE_SERVER_H
#define ENODE_RUNTIME_INFERENCE_SERVER_H

/**
 * @file
 * Concurrent NODE inference server.
 *
 * Turns the single-threaded NodeModel library into a servable engine:
 * a fixed pool of worker threads, each owning a *private replica* of
 * the embedded nets (weights written only from the registry's live
 * snapshot: version 0 at startup, each later publication at a dispatch
 * boundary; all scratch state — layer activations and kept training
 * pairs, solver controllers, eval counters — is per-worker), drains a
 * bounded MPMC request queue ordered by the same
 * SelectPolicy the hardware priority selector uses. Producers are never
 * blocked: a full queue rejects at admission (backpressure), exactly
 * like the selector's full state buffers.
 *
 * One serving path: every worker takes its next dispatch from the
 * Batcher (at maxBatch 1 a plain pop plus the deadline screen) and
 * solves it with NodeModel::forwardBatched — one shared f
 * evaluation per RK trial, error control per sample. Because the
 * solvers reset each sample's StepController at every call and each
 * worker's replica is private, a request's output depends only on the
 * weights and the input — results are bitwise identical to a
 * single-threaded NodeModel::forward with the same weights, regardless
 * of worker count, batch composition or interleaving
 * (tests/test_runtime.cc and tests/test_batcher.cc prove this).
 */

#include <array>
#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <optional>
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
     * guard over every layer of the forward pass (0 = unlimited). A
     * runaway stepsize search aborts with DeadlineExceeded once the
     * budget is spent; a rung-1 retry starts a new budget.
     */
    std::uint64_t maxFEvalsPerRequest = 0;

    /**
     * Hang threshold in milliseconds (0 = watchdog off). A watchdog
     * thread monitors every worker's in-flight dispatch — inference
     * batch or training task; one exceeding the threshold is failed
     * immediately (status Failed for every still-pending sample, one
     * watchdog.trips tick per wedged dispatch) and its solve is
     * flagged to abort at the next accepted step, so a wedged solve
     * costs one dispatch, not a worker. A training task's clock stops
     * while it yields to inference: each yielded batch is watched on
     * its own.
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
     * deterministically — a backlog staged this way reaches the
     * batcher whole, so it coalesces into full batches.
     */
    bool startPaused = false;

    /**
     * Cross-request micro-batching, the only batching setting: the
     * maximum number of compatible requests (identical input shape;
     * training tasks ship alone) one worker coalesces into a single
     * batched solve (solveIvpBatched — one shared f evaluation per RK
     * trial, error control per sample). The batcher is work-conserving:
     * a worker takes what is queued when it seeds a batch, up to this
     * bound, and never waits for more, so batches grow only under
     * backlog. A weight publication does not split a batch: the whole
     * batch runs on the weights current at dispatch.
     * 1 = no coalescing: every dispatch carries one request. A batch
     * of any size solves each request bitwise identically to
     * NodeModel::forward.
     */
    std::size_t maxBatch = 1;

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
     * tolerance relaxation, low-priority shedding). Off by default;
     * when off, admission stays the blind bounded-queue push.
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
     *        constructing thread). Replica 0's weights become registry
     *        version 0, which is applied to every other replica, so all
     *        workers serve bit-identical weights even if the factory is
     *        not deterministic.
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
     * (under LaterStreamFirst the queue ranks them after every
     * inference request of their stream, so they lose every priority
     * tie), but bypass the inference
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

    /** Workers serving a dispatch right now (publisher gauge source);
     *  a training task's yields do not count its worker twice. */
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
     *  for the *live* registry snapshot; invalid when caching is off.
     *  Exposed for key-stability tests — after a weight hot swap the
     *  value changes, which is exactly what keeps post-swap requests
     *  from hitting pre-swap cache entries. */
    Hash128 modelDigest() const;

    /**
     * The live weight snapshot. The training service publishes new
     * versions through it; workers hot-swap their private replicas to
     * the live version at dispatch boundaries (never mid-solve).
     */
    ModelRegistry &registry() { return registry_; }
    const ModelRegistry &registry() const { return registry_; }

  private:
    /**
     * In-flight work slot, shared between a worker and the watchdog.
     * One slot covers one dispatch — every request of an inference
     * batch, or one training task — so the hang watchdog protects both
     * identically. Exactly one of worker/watchdog delivers each
     * sample's response: the first to flip that sample's `delivered`
     * flag under the slot mutex owns its promise. `abort` is the
     * cooperative kill switch the solve guards poll (one shared flag:
     * a wedged batched solve is one wedged thread, so the whole
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
        /** Its training task is yielding: the watchdog skips the slot. */
        bool paused = false;
        RuntimeClock::time_point start{};
        RuntimeClock::time_point pausedAt{};
        std::vector<Sample> samples;
        std::atomic<bool> abort{false};

        /**
         * Hand the watchdog a dispatch started at `when`: one sample
         * per entry, each entry's promise moved into its sample.
         */
        void publish(std::span<QueueEntry> entries,
                     RuntimeClock::time_point when);
        /**
         * Take sample i's promise for delivery, moved out of the slot so
         * it ends with the delivery rather than at the slot's next
         * publish. Nothing when the watchdog already answered it (its
         * response won; discard ours).
         */
        std::optional<std::promise<InferResponse>> claim(std::size_t i);
        /** The dispatch is over: the watchdog stops watching it. */
        void retire();
        /** Stop the dispatch's clock at `when`; resume() restarts it
         *  with the paused time left out of its age. */
        void pause(RuntimeClock::time_point when);
        void resume(RuntimeClock::time_point when);
    };

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
        /**
         * The slots the watchdog watches: slots[0] holds the worker's
         * dispatch; slots[1] holds a batch a running training task
         * yields to, while slots[0] is paused.
         */
        std::array<InFlight, 2> slots;
        /** The batch a yield collects into (reused, as workerMain's). */
        CollectedBatch yieldBatch;
        std::thread thread;
    };

    /** The training task's solve guard (defined in the .cc). */
    class TrainGuard;

    void workerMain(std::size_t worker_id);
    /** A fresh stepsize controller from the factory (or the default). */
    std::unique_ptr<StepController> makeController() const;
    /**
     * Serve one gradient task on `flight`: sync the worker's training
     * replica to the task's weight snapshot, run forward + ACA
     * backward, yielding to preempting inference at every step
     * boundary, and answer Ok/Failed. Only the response's owner (see
     * InFlight::claim) writes the gradients and stats into the task.
     */
    void serveTrain(std::size_t worker_id, QueueEntry &entry,
                    InFlight &flight);
    /**
     * A yield point of the training task `task` running on this
     * worker: pause its slot and serve, on slots[1], the next batch of
     * the inference that preempts it.
     */
    void yieldTo(std::size_t worker_id, const QueueEntry &task);
    /**
     * Dispatch-boundary hot swap: if the registry has published past
     * the worker's replica version, overwrite the replica's weights
     * with the live snapshot. Called only between solves on the
     * worker's own thread, so in-flight requests are never touched; a
     * request stamped with an older version is still served (on the
     * newer weights) but its solve can no longer publish into the
     * cache, whose key embeds the stamped snapshot's digest.
     */
    void maybeSwapReplica(std::size_t worker_id);
    /**
     * Stamp `request` from one read of the live snapshot: its
     * modelVersion and, when the cache is on, its cacheKey and warmSig
     * (both embed the solver-config digest combined with the
     * snapshot's parameter digest, so they name the weights the stamp
     * names). Admission stamps every request; re-admission stamps each
     * follower again.
     */
    void stamp(InferRequest &request) const;
    /**
     * End one request, the only way any request ends: an inference
     * terminal takes the next completionIndex and is counted once
     * through recordCompletion; a training terminal (`train`) is
     * neither, as gradient tasks never passed recordAdmitted. Then the
     * promise is fulfilled.
     */
    void deliverTerminal(std::promise<InferResponse> &promise,
                         InferResponse response, bool train = false);
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
     * A pending solve failed: stamp each follower again from the live
     * snapshot and re-admit it through the cache lookup — the first
     * owns the key and queues, the rest attach to it. An owner the
     * (closing or full) queue refuses is Cancelled.
     */
    void redispatchFollowers(std::vector<QueueEntry> followers);
    /**
     * Terminal Cancelled response for an entry that is never solved:
     * left queued by a non-draining stop, stranded in the cache at
     * stop, or a re-admitted owner the queue refuses. Routed through
     * deliverTerminal, so admitted == completed + expired + failed +
     * cancelled + shed holds exactly; a gradient task's TrainingService
     * sees the status through its future and gives up the step.
     */
    void cancelEntry(QueueEntry &entry);
    /**
     * Terminal bookkeeping for a keyed owner that did not produce a
     * cacheable value (shed / refused / expired / failed / degraded /
     * watchdog-taken): retract its pending entry and re-admit the
     * followers. No-op for unkeyed requests.
     */
    void retractPending(const InferRequest &request);
    /**
     * Serve one dispatch from the batcher on `flight` — the only serve
     * path: fail the expired entries, hand a training task to
     * serveTrain, otherwise run the batched solve
     * (any size >= 1) and walk the degradation ladder per failing
     * sample (its batchmates are unaffected).
     */
    void serveBatch(std::size_t worker_id, CollectedBatch &batch,
                    InFlight &flight);
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
    /** One watchdog pass over one slot of worker `worker_id`: fail
     *  and abort its dispatch if it has run past the threshold. */
    void watchSlot(std::size_t worker_id, InFlight &flight,
                   RuntimeClock::time_point now);
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
    /** The live weight snapshot (seeded with version 0 at build). */
    ModelRegistry registry_;
    /** Solver-config half of the cache digest (weights live in the
     *  registry snapshot); valid only when caching is on. */
    Hash128 configDigest_;
    /** Factories kept for lazily building per-worker training replicas. */
    ModelFactory modelFactory_;
    ControllerFactory controllerFactory_;
    /** Training-path counters (outside MetricsRegistry by design). */
    std::atomic<std::uint64_t> trainTasks_{0};
    std::atomic<std::uint64_t> trainTaskFailures_{0};
    /** Yield points at which a training task served inference. */
    std::atomic<std::uint64_t> trainYields_{0};
    MetricsRegistry metrics_;
    std::vector<std::unique_ptr<Worker>> workers_;

    /** Post-clamp kernel split width every worker runs at. */
    std::size_t intraOpWidth_ = 1;
    /** Shared kernel-tile pool: numWorkers * (width - 1) threads, so
     *  running threads stay bounded even when all workers compute. */
    std::unique_ptr<TaskPool> intraOpPool_;

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
