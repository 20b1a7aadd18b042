#ifndef ENODE_RUNTIME_REQUEST_QUEUE_H
#define ENODE_RUNTIME_REQUEST_QUEUE_H

/**
 * @file
 * Bounded MPMC priority queue for inference requests.
 *
 * Admission is non-blocking: when the queue is at capacity tryPush
 * rejects immediately and the caller reports backpressure to the
 * client — the producer is never parked indefinitely, matching the
 * hardware selector's reject-on-full state buffers. Consumers block in
 * pop until work arrives or the queue is closed.
 *
 * Ordering reuses the sim's SelectPolicy so software serving and the
 * hardware model agree on what priority means:
 *  - LaterStreamFirst: highest stream tag first (the paper's rule);
 *    within a stream inference before training, then tighter deadline,
 *    then admission order.
 *  - Fifo: strict admission order.
 *
 * The same order decides what a running training task yields to: an
 * inference entry preempts it at its next step boundary when the
 * order would have dispatched that entry first (preempts()).
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

/** Outcome of a bounded-wait pop (see RequestQueue::popUntil). */
enum class PopStatus
{
    Ok,       ///< an entry was dequeued
    TimedOut, ///< deadline passed with the queue still open and empty
    Closed,   ///< queue closed and fully drained
};

/** Bounded multi-producer multi-consumer priority queue. */
class RequestQueue
{
  public:
    /**
     * @param capacity Maximum queued (undisbatched) requests.
     * @param policy Dispatch order (shared with the hardware sim).
     */
    RequestQueue(std::size_t capacity, SelectPolicy policy);

    /**
     * Offer an entry. Never blocks.
     * @return false when the queue is full or closed; the entry is left
     *         untouched so the caller can fail it appropriately.
     */
    bool tryPush(QueueEntry &entry);

    /**
     * Take the highest-priority entry, blocking while the queue is open
     * and empty.
     * @return false when the queue is closed and fully drained.
     */
    bool pop(QueueEntry &out);

    /**
     * Like pop, but give up at `deadline`: the batching collector uses
     * this to bound how long an open batch waits for company. Returns
     * Ok with an entry, TimedOut when the deadline passed on an open
     * empty queue, or Closed once the queue is closed and drained.
     */
    PopStatus popUntil(QueueEntry &out, RuntimeClock::time_point deadline);

    /**
     * Non-blocking pop for a training task's yield: take the head only
     * when it preempts `task` (see preempts()); otherwise leave the
     * queue untouched and return false.
     */
    bool tryPopAhead(const QueueEntry &task, QueueEntry &out);

    /**
     * True when `entry` is an inference request that dispatches ahead
     * of `task`, the entry a running training task was popped as.
     */
    bool preempts(const QueueEntry &entry, const QueueEntry &task) const
    {
        return entry.request.train == nullptr && dispatchesAfter(task, entry);
    }

    /**
     * True when an inference request heads the queue: the one relaxed
     * load a running training task makes at every step boundary. A
     * hint (the head may not preempt that task); tryPopAhead decides.
     */
    bool inferenceHeads() const
    {
        return inferenceHeads_.load(std::memory_order_relaxed);
    }

    /**
     * Close the queue: all further pushes fail and blocked consumers
     * wake. With drain=true queued entries stay poppable; with
     * drain=false they are removed and returned so the caller can
     * cancel them.
     */
    std::vector<QueueEntry> close(bool drain);

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    SelectPolicy policy() const { return policy_; }
    bool closed() const;

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
    /** Remove the head into `out` and refresh inferenceHeads_; the
     *  caller holds mutex_ and has checked the heap is non-empty. */
    void popHead(QueueEntry &out);
    /** Re-derive inferenceHeads_ from the head; caller holds mutex_. */
    void noteHead();

    const std::size_t capacity_;
    const SelectPolicy policy_;

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
