#ifndef ENODE_RUNTIME_TRAINING_SERVICE_H
#define ENODE_RUNTIME_TRAINING_SERVICE_H

/**
 * @file
 * Online training as a runtime service (the paper's "edge inference
 * AND training" workload, Sec. II.C / IV.B).
 *
 * The service owns a master copy of the model and an SGD optimizer,
 * and runs synchronous data-parallel steps ON the serving runtime: the
 * B examples of a step become B gradient tasks submitted through the
 * same bounded queue and worker pool that serves inference. Training
 * rides the lowest-priority stream, and under LaterStreamFirst the
 * queue ranks it after every inference request of its stream, so it
 * loses every dispatch tie, and a task already on a worker yields to inference that outranks it after every accepted
 * forward step and before every backward step. Inference latency
 * degrades by at most one such step of the task in flight, never by
 * queue displacement.
 *
 * Determinism: each task's gradient depends only on the step's weight
 * snapshot and the example (the solver is bitwise reproducible), never
 * on which worker ran it. The service reduces the per-task gradients
 * in a fixed-slot pairwise tree (stride 1, 2, 4, ... over the task
 * index), so the reduced gradient — and therefore the whole training
 * trajectory — is bitwise identical across worker counts and
 * scheduling interleavings. Tests assert this across {1, 2, 4}
 * workers via gradientDigest.
 *
 * Weight publication: every publishEvery steps the master's weights go
 * to the server's ModelRegistry as a new version; workers hot-swap
 * their serving replicas at their next dispatch boundary. See
 * DESIGN.md §14 for the swap protocol and cache-invalidation rules.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "core/aca_trainer.h"
#include "nn/optimizer.h"
#include "runtime/inference_server.h"

namespace enode {

/**
 * One gradient task in flight on the worker pool. Owned by the
 * TrainingService for the whole step (workers hold only the raw
 * pointer riding the queue entry).
 */
struct TrainTask
{
    /** Training step this task belongs to (snapshot identity). */
    std::uint64_t step = 0;
    /** Priority class the task is queued on (low; see TrainingOptions). */
    std::uint32_t stream = 0;
    /** Master weights at the start of the step; every task of a step
     *  trains the same snapshot regardless of serving-replica swaps. */
    std::shared_ptr<const WeightSnapshot> weights;
    Tensor input;  ///< example x0
    Tensor target; ///< regression target for h(T)
    /** Solver options for the training forward (checkpoints ON — the
     *  ACA backward consumes the recorded trajectory). */
    IvpOptions ivp;
    /**
     * Fixed gradient slot, pre-sized to the model's param-slot count.
     * The worker writes dL/dtheta here; the service's tree reduction
     * reads it by task index, which is what makes the reduction order
     * worker-count-independent.
     */
    std::vector<Tensor> *grads = nullptr;
    // --- written, with *grads, by the worker that answers the task;
    // an attempt the watchdog took over writes nothing ---
    double loss = 0.0;
    SolveStatus forwardStatus = SolveStatus::Ok;
    IvpStats forwardStats;
    AcaStats backwardStats;
};

/** Training-service construction knobs. */
struct TrainingOptions
{
    double learningRate = 1e-2;
    double momentum = 0.0;
    double weightDecay = 0.0;
    /** Global gradient-norm clip; 0 disables. */
    double gradClipNorm = 0.0;
    /** Examples (= gradient tasks) per synchronous step. */
    std::size_t batchSize = 8;
    /** Steps between weight publications to the registry; 0 = never
     *  publish (pure gradient computation, e.g. determinism tests). */
    std::size_t publishEvery = 1;
    /** Stream tag for gradient tasks. Keep at (or below) the lowest
     *  inference stream: training must lose every priority tie. */
    std::uint32_t stream = 0;
    /** Resubmissions of a task whose solve failed (watchdog trip,
     *  solver failure). A task still failing after the retries leaves
     *  its gradient slot zero — the step proceeds without it. */
    std::size_t maxTaskRetries = 2;
    /** Solver options for training forwards. Defaults to the library
     *  defaults, which record checkpoints; the service forces
     *  recordCheckpoints back on if a caller turns it off. */
    IvpOptions ivp;
};

/** One labelled example of the streaming regression workload. */
struct TrainExample
{
    Tensor input;
    Tensor target;
};

/** Outcome of one synchronous training step. */
struct TrainStepOutcome
{
    std::uint64_t step = 0;
    /** Mean loss over the tasks that solved (0 when none did). */
    double meanLoss = 0.0;
    /** Digest of the reduced gradient, hashed after the tree reduction
     *  and mean scaling but before clipping and the optimizer step.
     *  Bitwise identical across worker counts by construction. */
    Hash128 gradDigest;
    std::size_t tasksFailed = 0;  ///< slots left zero after retries
    std::size_t tasksRetried = 0; ///< resubmissions performed
    /** Registry version published at the end of this step; 0 if this
     *  step did not publish. */
    std::uint64_t publishedVersion = 0;
    AcaStats backwardStats; ///< summed over succeeded tasks
};

/**
 * Interleaved training driver over an InferenceServer's worker pool.
 *
 * Synchronous use: call step() with batchSize examples. Streaming use:
 * start() spawns a background thread that draws examples from a
 * sampler and steps until stop(). Not thread-safe: one step at a time
 * (the background thread is that one caller while running).
 */
class TrainingService
{
  public:
    /** Draws the i-th streaming example (i is a global counter). */
    using Sampler = std::function<TrainExample(std::uint64_t)>;

    /**
     * @param server Serving runtime to train on (must outlive this).
     * @param master Master model; structurally identical to the
     *        server's replicas (same factory is the easy way). Its
     *        weights are overwritten with the registry's live snapshot
     *        at construction, so training continues from exactly what
     *        the server is serving.
     * @param options Hyperparameters and scheduling knobs.
     */
    TrainingService(InferenceServer &server,
                    std::unique_ptr<NodeModel> master,
                    TrainingOptions options);

    /** Stops the streaming thread if running. */
    ~TrainingService();

    TrainingService(const TrainingService &) = delete;
    TrainingService &operator=(const TrainingService &) = delete;

    /**
     * One synchronous data-parallel step over the given examples
     * (typically batchSize of them; any non-zero count works).
     * Blocks until every task completed or exhausted its retries.
     */
    TrainStepOutcome step(const std::vector<TrainExample> &examples);

    /** Start the background streaming loop (one thread). */
    void start(Sampler sampler);

    /** Stop the streaming loop and join (idempotent). */
    void stop();

    /** Steps completed so far. */
    std::uint64_t steps() const
    {
        return stepsDone_.load(std::memory_order_relaxed);
    }

    /**
     * The master model (the training-trajectory source of truth). Only
     * step() writes it: each step trains the snapshot the previous
     * step captured (or the registry's at construction), so a write
     * from outside would reach neither the tasks nor the registry.
     */
    NodeModel &master() { return *master_; }

    /** "train.*" counters and gauges for exposition/benches. */
    StatGroup snapshotStats() const;

  private:
    InferenceServer &server_;
    std::unique_ptr<NodeModel> master_;
    TrainingOptions options_;
    std::unique_ptr<Sgd> optimizer_;
    /** The master's weights as the next step's tasks train them:
     *  captured after each optimizer step, and published from the
     *  same copy when that step publishes. */
    std::shared_ptr<const WeightSnapshot> weights_;

    /** Task and gradient-slot storage, reused across steps. */
    std::vector<TrainTask> tasks_;
    std::vector<std::vector<Tensor>> slotGrads_;

    std::thread streamThread_;
    std::atomic<bool> streamStop_{false};

    std::atomic<std::uint64_t> stepsDone_{0};
    std::atomic<std::uint64_t> tasksSubmitted_{0};
    std::atomic<std::uint64_t> taskFailures_{0};
    std::atomic<std::uint64_t> taskRetries_{0};
    std::atomic<std::uint64_t> published_{0};
    std::atomic<double> lastLoss_{0.0};
};

} // namespace enode

#endif // ENODE_RUNTIME_TRAINING_SERVICE_H
