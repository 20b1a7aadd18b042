#ifndef ENODE_RUNTIME_BATCHER_H
#define ENODE_RUNTIME_BATCHER_H

/**
 * @file
 * Work-conserving micro-batching collector.
 *
 * Sits between the RequestQueue and the worker pool — the only way
 * work reaches a worker: a worker asks the batcher for its next
 * dispatch and receives a *batch* of compatible requests instead of a
 * single entry. The batcher blocks only for a seed request; it then
 * adds the compatible requests already queued, through non-blocking
 * pops, until the batch is full, the queue is empty, or an
 * incompatible request heads it. That request stays queued, and the
 * queue's own order decides what dispatches next. It never waits for
 * company: a backlog coalesces fully, and a lone request solves at
 * once — the paper's work-conserving selector (Sec. V), which
 * dispatches whatever is ready.
 *
 * Compatibility means the requests can share one batched solve:
 * identical input shape; training tasks never coalesce. Solver options
 * are server-wide, and a worker swaps its replica's weights only
 * between dispatches, so every request of a batch runs on the weights
 * current at dispatch whatever version it was admitted against. The
 * predicate is centralized in compatible() should that change.
 *
 * Deadline hygiene: the batcher fails requests whose deadline lapsed
 * while queued, at every pop, so an expired request is never solved;
 * nothing waits between a pop and the dispatch, and the solver's
 * per-sample deadline guard covers the solve itself. Expired entries
 * ride back in CollectedBatch::expired — and the seed hunt never
 * *blocks* while holding them: once anything has been diverted, an
 * empty queue ships the casualties immediately rather than delaying
 * their terminal responses until the next arrival (or shutdown).
 */

#include <vector>

#include "runtime/request_queue.h"

namespace enode {

/** What one collect() returns: a coherent batch plus its casualties. */
struct CollectedBatch
{
    /** Compatible, unexpired requests; solve these together. */
    std::vector<QueueEntry> entries;
    /** Requests whose deadline lapsed before their pop. */
    std::vector<QueueEntry> expired;
    /** When the seed request was popped (start of the collect). */
    RuntimeClock::time_point firstPop{};
};

/**
 * Thread-safe batch collector over a RequestQueue.
 *
 * Multiple workers call collect() concurrently; each gets its own
 * batch. The batcher holds no mutable state: every entry it has not
 * handed out is still in the queue. With maxBatch 1 the collector
 * degenerates to a plain pop with the deadline screen applied. The
 * solve cache decided each keyed request once, at admission, so every
 * entry queued here needs a solve.
 *
 * collectAhead() is the variant a running training task yields
 * through: it takes only inference requests that preempt the task
 * (RequestQueue::preempts), through the same non-blocking pop.
 */
class Batcher
{
  public:
    /**
     * @param queue Source of requests (owned by the server).
     * @param maxBatch Upper bound on entries per batch (>= 1).
     */
    Batcher(RequestQueue &queue, std::size_t maxBatch);

    /**
     * Block for a seed, then add what is queued behind it.
     * @return false when the queue is closed and drained — the worker
     *         should exit. When true, entries and/or expired hold at
     *         least one request.
     */
    bool collect(CollectedBatch &out);

    /**
     * Never blocks: the next batch of the inference requests that
     * preempt `task`, the entry a training task running on the calling
     * worker was popped as, taken from the queue as it stands, with the
     * deadline screen of collect().
     * @return false when nothing waiting preempts `task`.
     */
    bool collectAhead(const QueueEntry &task, CollectedBatch &out);

  private:
    /** True when a and b may share one batched solve. */
    static bool compatible(const QueueEntry &a, const QueueEntry &b);

    /** The pop screen: move `entry` to out.expired when its deadline
     *  lapsed. False leaves it untouched. */
    bool expire(QueueEntry &entry, CollectedBatch &out);

    /** Start a batch at `seed` and grow it to maxBatch with the entries
     *  queued right now (only those preempting `task`, when given); an
     *  incompatible head ends the batch and stays queued. */
    void fill(CollectedBatch &out, QueueEntry seed, const QueueEntry *task);

    RequestQueue &queue_;
    const std::size_t maxBatch_;
};

} // namespace enode

#endif // ENODE_RUNTIME_BATCHER_H
