#ifndef ENODE_RUNTIME_REQUEST_QUEUE_H
#define ENODE_RUNTIME_REQUEST_QUEUE_H

/**
 * @file
 * Bounded MPMC priority queue for inference requests.
 *
 * Admission is non-blocking: when the queue is at capacity tryPush
 * rejects immediately and the caller reports backpressure to the
 * client — the producer is never parked indefinitely, matching the
 * hardware selector's reject-on-full state buffers. Consumers either
 * block in pop until work arrives or the queue is closed, or take the
 * head right now with tryPop, and only when the caller's predicate
 * accepts it; no pop waits on a timer. A head a consumer cannot use
 * stays queued, so the order below alone decides what dispatches
 * next: no consumer holds an entry back outside the queue.
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
#include <optional>
#include <utility>
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
     * and empty. The entry is moved out of the queue, never assigned
     * over a default-constructed one, so a pop makes no heap call.
     * @return nothing when the queue is closed and fully drained.
     */
    std::optional<QueueEntry> pop();

    /**
     * Never blocks: take the head if one is queued and `accept(head)`
     * holds; otherwise leave the queue untouched and return nothing,
     * closed or not. `accept` runs under the queue mutex, so it must
     * be cheap and must not allocate: a lambda, not a std::function.
     */
    template <typename Accept>
    std::optional<QueueEntry> tryPop(Accept &&accept)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (heap_.empty() || !accept(std::as_const(heap_.front())))
            return std::nullopt;
        return popHead();
    }
    /** tryPop that accepts whatever heads the queue. */
    std::optional<QueueEntry> tryPop()
    {
        return tryPop([](const QueueEntry &) { return true; });
    }

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
     * hint (the head may not preempt that task); tryPop decides.
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
    /** Remove and return the head and refresh inferenceHeads_; the
     *  caller holds mutex_ and has checked the heap is non-empty. */
    QueueEntry popHead();
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
