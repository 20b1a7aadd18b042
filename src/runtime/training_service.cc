#include "runtime/training_service.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/trace_span.h"

namespace enode {

TrainingService::TrainingService(InferenceServer &server,
                                 std::unique_ptr<NodeModel> master,
                                 TrainingOptions options)
    : server_(server), master_(std::move(master)), options_(options)
{
    ENODE_ASSERT(master_ != nullptr, "training service needs a master model");
    ENODE_ASSERT(options_.batchSize >= 1, "batchSize must be >= 1");
    ENODE_ASSERT(options_.learningRate > 0.0, "learningRate must be > 0");
    // The ACA backward consumes the forward's recorded checkpoints;
    // training cannot run with recording off.
    options_.ivp.recordCheckpoints = true;

    // Start from exactly what the server is serving: the registry's
    // live snapshot (version 0 = the server's construction weights
    // unless someone already published). It is also the first step's
    // task snapshot.
    weights_ = server_.registry().latest();
    ModelRegistry::applyTo(*weights_, *master_);
    optimizer_ = std::make_unique<Sgd>(master_->paramSlots(),
                                       options_.learningRate,
                                       options_.momentum,
                                       options_.weightDecay);

    // Fixed-slot gradient storage: slot index == task index, the
    // anchor of the deterministic reduction. Reused across steps.
    const std::size_t numSlots = master_->paramSlots().size();
    tasks_.resize(options_.batchSize);
    slotGrads_.resize(options_.batchSize);
    for (std::size_t b = 0; b < options_.batchSize; b++) {
        slotGrads_[b].resize(numSlots);
        tasks_[b].grads = &slotGrads_[b];
        tasks_[b].stream = options_.stream;
        tasks_[b].ivp = options_.ivp;
    }
}

TrainingService::~TrainingService()
{
    stop();
}

TrainStepOutcome
TrainingService::step(const std::vector<TrainExample> &examples)
{
    ENODE_ASSERT(!examples.empty(), "training step needs >= 1 example");
    ENODE_ASSERT(examples.size() <= tasks_.size(),
                 "more examples than the configured batchSize");
    const std::size_t n = examples.size();
    const std::uint64_t step_id = stepsDone_.load() + 1;

    TraceSpan span("train.step", "train");
    span.arg("step", static_cast<double>(step_id));
    span.arg("tasks", static_cast<double>(n));

    TrainStepOutcome out;
    out.step = step_id;

    // Prepare and submit the tasks. Slots of tasks that never succeed
    // stay zero, contributing nothing to the reduction.
    std::vector<std::future<InferResponse>> futures(n);
    std::vector<bool> succeeded(n, false);
    const auto numSlots = slotGrads_.empty() ? 0 : slotGrads_[0].size();
    for (std::size_t b = 0; b < n; b++) {
        TrainTask &task = tasks_[b];
        task.step = step_id;
        task.weights = weights_;
        task.input = examples[b].input;
        task.target = examples[b].target;
        task.loss = 0.0;
        task.forwardStatus = SolveStatus::Ok;
        for (std::size_t s = 0; s < numSlots; s++) {
            // Zero by resetting shape lazily: the worker sizes each
            // grad tensor on write, so an untouched slot stays empty
            // and the reduction treats empty as zero.
            (*task.grads)[s].reset();
        }
    }

    // Submit with bounded patience on a full queue: training yields to
    // inference backpressure rather than competing with it, but a
    // persistently full queue must not hang the step forever.
    const auto submitOne = [this](TrainTask &task,
                                  std::future<InferResponse> &future) {
        for (int attempt = 0; attempt < 200; attempt++) {
            auto sub = server_.submitTrainTask(task);
            if (sub.accepted) {
                future = std::move(sub.result);
                tasksSubmitted_.fetch_add(1, std::memory_order_relaxed);
                return true;
            }
            if (attempt + 1 < 200)
                std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        return false;
    };

    std::vector<bool> pending(n, false);
    for (std::size_t b = 0; b < n; b++)
        pending[b] = submitOne(tasks_[b], futures[b]);

    // Await, retrying failed tasks up to maxTaskRetries each. Retries
    // are deterministic re-runs of the same (weights, example) pair,
    // so they cannot perturb the reduced gradient when they succeed.
    for (std::size_t b = 0; b < n; b++) {
        std::size_t retries = 0;
        while (pending[b]) {
            InferResponse response = futures[b].get();
            pending[b] = false;
            if (response.status == RequestStatus::Ok) {
                succeeded[b] = true;
            } else if (response.status == RequestStatus::Failed &&
                       retries < options_.maxTaskRetries) {
                retries++;
                taskRetries_.fetch_add(1, std::memory_order_relaxed);
                out.tasksRetried++;
                pending[b] = submitOne(tasks_[b], futures[b]);
            }
            // Cancelled (server stopping), InvalidInput or retries
            // exhausted: the slot stays zero.
        }
        if (!succeeded[b]) {
            taskFailures_.fetch_add(1, std::memory_order_relaxed);
            out.tasksFailed++;
        }
    }

    // Fixed-stride pairwise tree reduction over the task slots:
    // slot[i] += slot[i + stride] for stride 1, 2, 4, ... The order
    // depends only on the slot indices — never on completion order or
    // worker count — so the sum is bitwise reproducible. Empty slots
    // (failed tasks) are additive identities.
    std::size_t n_ok = 0;
    double loss_sum = 0.0;
    for (std::size_t b = 0; b < n; b++) {
        if (!succeeded[b])
            continue;
        n_ok++;
        loss_sum += tasks_[b].loss;
        out.backwardStats.accumulate(tasks_[b].backwardStats);
    }
    for (std::size_t stride = 1; stride < n; stride *= 2) {
        for (std::size_t i = 0; i + stride < n; i += 2 * stride) {
            auto &dst = slotGrads_[i];
            auto &src = slotGrads_[i + stride];
            for (std::size_t s = 0; s < numSlots; s++) {
                if (src[s].empty())
                    continue;
                if (dst[s].empty())
                    dst[s] = std::move(src[s]);
                else
                    dst[s] += src[s];
            }
        }
    }

    out.meanLoss = n_ok > 0 ? loss_sum / static_cast<double>(n_ok) : 0.0;
    lastLoss_.store(out.meanLoss, std::memory_order_relaxed);

    if (n_ok > 0) {
        // Mean over the tasks that actually contributed, then hand the
        // reduced gradient to the master's slots.
        const float inv = 1.0f / static_cast<float>(n_ok);
        const std::vector<ParamSlot> &slots = master_->paramSlots();
        StreamHasher hasher;
        master_->zeroGrad();
        for (std::size_t s = 0; s < numSlots; s++) {
            Tensor &g = slotGrads_[0][s];
            if (!g.empty()) {
                g.scale(inv);
                slots[s].grad->copyFrom(g);
            }
            hashTensorInto(hasher, *slots[s].grad);
        }
        out.gradDigest = hasher.digest();
        if (options_.gradClipNorm > 0.0)
            optimizer_->clipGradNorm(options_.gradClipNorm);
        optimizer_->step();

        // Snapshot the stepped master once: the registry serves it if
        // this step publishes, and every task of the next step trains
        // it, whatever the serving replicas swap to in the meantime.
        std::shared_ptr<WeightSnapshot> next = ModelRegistry::capture(*master_);
        if (options_.publishEvery > 0 &&
            step_id % options_.publishEvery == 0) {
            out.publishedVersion = server_.registry().publish(next);
            published_.fetch_add(1, std::memory_order_relaxed);
            span.arg("published",
                     static_cast<double>(out.publishedVersion));
        }
        weights_ = std::move(next);
    }

    stepsDone_.fetch_add(1, std::memory_order_relaxed);
    return out;
}

void
TrainingService::start(Sampler sampler)
{
    ENODE_ASSERT(static_cast<bool>(sampler), "null sampler");
    ENODE_ASSERT(!streamThread_.joinable(), "streaming loop already running");
    streamStop_.store(false, std::memory_order_release);
    streamThread_ = std::thread([this, sampler = std::move(sampler)] {
        Tracer::instance().setThreadName("trainer");
        std::uint64_t index = 0;
        std::vector<TrainExample> batch(options_.batchSize);
        while (!streamStop_.load(std::memory_order_acquire)) {
            for (auto &example : batch)
                example = sampler(index++);
            step(batch);
        }
    });
}

void
TrainingService::stop()
{
    streamStop_.store(true, std::memory_order_release);
    if (streamThread_.joinable())
        streamThread_.join();
}

StatGroup
TrainingService::snapshotStats() const
{
    StatGroup stats("train");
    stats.setCounter("train.steps", stepsDone_.load());
    stats.setCounter("train.tasks", tasksSubmitted_.load());
    stats.setCounter("train.task_failures", taskFailures_.load());
    stats.setCounter("train.task_retries", taskRetries_.load());
    stats.setCounter("train.published", published_.load());
    stats.set("train.last_loss", lastLoss_.load());
    return stats;
}

} // namespace enode
