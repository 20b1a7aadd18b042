#ifndef ENODE_RUNTIME_REQUEST_QUEUE_H
#define ENODE_RUNTIME_REQUEST_QUEUE_H

/**
 * @file
 * Bounded MPMC priority queue that forms every dispatch.
 *
 * Admission is non-blocking: when the queue is at capacity tryPush
 * rejects immediately and the caller reports backpressure to the
 * client — the producer is never parked indefinitely, matching the
 * hardware selector's reject-on-full state buffers.
 *
 * Ordering reuses the sim's SelectPolicy so software serving and the
 * hardware model agree on what priority means:
 *  - LaterStreamFirst: highest stream tag first (the paper's rule);
 *    within a stream inference before training, then tighter deadline,
 *    then admission order.
 *  - Fifo: strict admission order.
 *
 * Dispatch: a worker asks the queue for its next batch (collect()) and
 * gets the best entry, then the entries behind it in that order while
 * they stay compatible, up to maxBatch. Compatible means the requests
 * can share one batched solve: identical input shape; training tasks
 * never coalesce. An incompatible head ends the batch and stays queued,
 * so the order above alone decides what dispatches next. The queue
 * never waits for company: a backlog coalesces fully, and a lone
 * request solves at once — the paper's work-conserving selector
 * (Sec. V), which issues whatever is ready. The seed pop, the deadline
 * screen and the fill run under one hold of the queue mutex, so a batch
 * is one view of the queue.
 *
 * Solver options are server-wide, and a worker swaps its replica's
 * weights only between dispatches, so every request of a batch runs on
 * the weights current at dispatch whatever version it was admitted
 * against.
 *
 * Deadline screen: an entry whose deadline lapsed while queued is
 * diverted to CollectedBatch::expired instead of joining the batch, and
 * its batch slot stays open; the solver's per-sample deadline guard
 * covers the solve itself. A collect() never blocks while it holds
 * casualties: once anything has been diverted, an empty queue ships
 * them at once rather than delaying their terminal responses until the
 * next arrival (or shutdown).
 *
 * The same order decides what a running training task yields to: an
 * inference entry preempts it at its next step boundary when the order
 * would have dispatched that entry first. collectAhead() is that yield's
 * non-blocking collect: it takes only entries that preempt the task.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <vector>

#include "runtime/request.h"
#include "sim/priority_selector.h"

namespace enode {

/** A queued request plus its completion channel and admission record. */
struct QueueEntry
{
    InferRequest request;
    std::promise<InferResponse> promise;
    RuntimeClock::time_point enqueueTime;
    std::uint64_t seq = 0; ///< admission order, assigned by the queue
};

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

/** Bounded multi-producer multi-consumer priority queue. */
class RequestQueue
{
  public:
    /**
     * @param capacity Maximum queued (undispatched) requests.
     * @param policy Dispatch order (shared with the hardware sim).
     * @param maxBatch Upper bound on entries per collected batch
     *        (>= 1). At 1 a collect is a plain pop plus the deadline
     *        screen.
     */
    RequestQueue(std::size_t capacity, SelectPolicy policy,
                 std::size_t maxBatch = 1);

    /**
     * Offer an entry. Never blocks.
     * @return false when the queue is full or closed; the entry is left
     *         untouched so the caller can fail it appropriately.
     */
    bool tryPush(QueueEntry &entry);

    /**
     * Block for a seed, then add what is queued behind it. Entries are
     * moved out of the queue, never assigned over default-constructed
     * ones, so a warm collect makes no heap call.
     * @return false when the queue is closed and drained — the worker
     *         should exit. When true, entries and/or expired hold at
     *         least one request.
     */
    bool collect(CollectedBatch &out);

    /**
     * Never blocks: the next batch of the inference requests that
     * preempt `task`, the entry a training task running on the calling
     * worker was collected as, taken from the queue as it stands, with
     * the deadline screen of collect().
     * @return false when nothing waiting preempts `task`.
     */
    bool collectAhead(const QueueEntry &task, CollectedBatch &out);

    /**
     * True when an inference request heads the queue: the one relaxed
     * load a running training task makes at every step boundary. A
     * hint (the head may not preempt that task); collectAhead decides.
     */
    bool inferenceHeads() const
    {
        return inferenceHeads_.load(std::memory_order_relaxed);
    }

    /**
     * Close the queue: all further pushes fail and blocked collectors
     * wake. With drain=true queued entries stay collectable; with
     * drain=false they are removed and returned so the caller can
     * cancel them.
     */
    std::vector<QueueEntry> close(bool drain);

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    SelectPolicy policy() const { return policy_; }

    /** Producers turned away by a full queue since construction. */
    std::uint64_t rejected() const;
    /** Producers turned away because the queue was closed. Kept apart
     *  from rejected(): backpressure is a capacity signal, a closed
     *  queue is lifecycle — conflating them (or dropping the count, as
     *  an earlier version did) breaks counter reconciliation. */
    std::uint64_t closedRejected() const;
    /** Peak queue occupancy since construction. */
    std::size_t peakSize() const;

  private:
    /** Heap order: true when a dispatches *after* b. */
    bool dispatchesAfter(const QueueEntry &a, const QueueEntry &b) const;
    /** True when `entry` is an inference request that dispatches ahead
     *  of `task`, the entry a running training task was collected as. */
    bool preempts(const QueueEntry &entry, const QueueEntry &task) const;
    /** True when a and b may share one batched solve. */
    static bool compatible(const QueueEntry &a, const QueueEntry &b);
    /**
     * Form one dispatch into `out`, emptied first, from the heap as it
     * stands: take the head while it preempts `task` (any head when
     * null) and is compatible with the batch's seed, up to maxBatch,
     * diverting lapsed entries to out.expired. The caller holds mutex_.
     * @return false when nothing was taken.
     */
    bool take(CollectedBatch &out, const QueueEntry *task);
    /** Remove and return the head and refresh inferenceHeads_; the
     *  caller holds mutex_ and has checked the heap is non-empty. */
    QueueEntry popHead();
    /** Re-derive inferenceHeads_ from the head; caller holds mutex_. */
    void noteHead();

    const std::size_t capacity_;
    const SelectPolicy policy_;
    const std::size_t maxBatch_;

    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::vector<QueueEntry> heap_; ///< max-heap under dispatchesAfter
    std::atomic<bool> inferenceHeads_{false}; ///< written under mutex_
    bool closed_ = false;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t closedRejected_ = 0;
    std::size_t peakSize_ = 0;
};

} // namespace enode

#endif // ENODE_RUNTIME_REQUEST_QUEUE_H
