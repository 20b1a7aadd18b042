#ifndef ENODE_RUNTIME_BATCHER_H
#define ENODE_RUNTIME_BATCHER_H

/**
 * @file
 * Dynamic micro-batching collector.
 *
 * Sits between the RequestQueue and the worker pool — the only way
 * work reaches a worker: a worker asks the batcher for its next
 * dispatch and receives a *batch* of compatible requests instead of a
 * single entry. The batcher pops a seed request, then keeps a collect
 * window open for at most maxWaitUs, admitting every compatible
 * request that arrives until the batch is full, the window lapses, or
 * an incompatible request shows up (which is stashed to seed the next
 * batch, never reordered behind later arrivals of its own class).
 *
 * Compatibility means the requests can share one batched solve:
 * identical input shape and model version; training tasks never
 * coalesce. Solver options are server-wide, so these are the only
 * per-request axes; the predicate is centralized in compatible()
 * should that change.
 *
 * Deadline hygiene: the batcher fails requests whose deadline lapsed
 * while queued, at every pop *and* once more when the window closes,
 * so a request that expired while the batch waited for company is
 * failed (counted `expired`), never solved. Expired entries ride back
 * in CollectedBatch::expired — and the seed hunt never *blocks* while
 * holding them: once anything has been diverted, an empty queue ships
 * the casualties immediately rather than delaying their terminal
 * responses until the next arrival (or shutdown).
 */

#include <deque>
#include <mutex>
#include <vector>

#include "runtime/admission.h"
#include "runtime/request_queue.h"
#include "runtime/solve_cache.h"

namespace enode {

/** What one collect() returns: a coherent batch plus its casualties. */
struct CollectedBatch
{
    /** Compatible, unexpired requests; solve these together. */
    std::vector<QueueEntry> entries;
    /** Requests whose deadline lapsed at pop or during the window. */
    std::vector<QueueEntry> expired;
    /** A request answered from the exact cache at the pop screen. */
    struct CacheHit
    {
        QueueEntry entry;
        Tensor value; ///< the cached output, copied under the shard lock
    };
    /**
     * Requests whose exact-cache entry became ready while they queued.
     * They never consume a batch slot or seed a window; the worker
     * delivers each one's value.
     */
    std::vector<CacheHit> cacheHits;
    /** When the seed request was popped (start of the window). */
    RuntimeClock::time_point firstPop{};
    /** Window duration: seed pop to window close. 0 for maxBatch 1. */
    double collectWaitMs = 0.0;
};

/**
 * Thread-safe batch collector over a RequestQueue.
 *
 * Multiple workers call collect() concurrently; each gets its own
 * batch. The only shared state is a FIFO stash holding the incompatible
 * requests that closed collect windows, protected by an internal mutex.
 * Each open window stashes at most one entry, so the stash holds at
 * most one entry per concurrently-collecting worker — but overlapping
 * windows can legitimately stash at the same time, which is why the
 * stash is a queue and not a single slot. Stashed entries seed
 * subsequent batches in stash order, ahead of anything still queued.
 * With maxBatch 1 the collector degenerates to a plain pop with the
 * deadline and cache screens applied.
 */
class Batcher
{
  public:
    /**
     * @param queue Source of requests (owned by the server).
     * @param maxBatch Upper bound on entries per batch (>= 1).
     * @param maxWaitUs Collect-window budget in microseconds; how long
     *        a seeded batch may wait for company. Only meaningful when
     *        maxBatch > 1.
     * @param cache Optional solve cache: keyed requests whose exact
     *        entry is ready at pop are diverted, with the cached value,
     *        to CollectedBatch::cacheHits instead of occupying the batch.
     * @param admission Optional overload controller: at brownout level
     *        >= 2 the collect window is scaled down (latency drains
     *        ahead of coalescing efficiency under load). Consulted once
     *        per window open.
     */
    Batcher(RequestQueue &queue, std::size_t maxBatch, double maxWaitUs,
            SolveCache *cache = nullptr,
            const AdmissionController *admission = nullptr);

    /**
     * Block for the next batch.
     * @return false when the queue is closed and drained and the stash
     *         is empty — the worker should exit. When true, entries,
     *         expired and/or cacheHits hold at least one request.
     */
    bool collect(CollectedBatch &out);

    std::size_t maxBatch() const { return maxBatch_; }
    double maxWaitUs() const { return maxWaitUs_; }

  private:
    /** True when a and b may share one batched solve. */
    static bool compatible(const QueueEntry &a, const QueueEntry &b);

    /** Move the oldest stashed entry into `out` if one is waiting. */
    bool takeStash(QueueEntry &out);
    void putStash(QueueEntry entry);

    /** Divert `entry` to out.cacheHits when its exact-cache value is
     *  ready (the value is taken now); false leaves it untouched. */
    bool takeCached(QueueEntry &entry, CollectedBatch &out);

    RequestQueue &queue_;
    const std::size_t maxBatch_;
    const double maxWaitUs_;
    SolveCache *const cache_;
    const AdmissionController *const admission_;

    std::mutex stashMutex_;
    std::deque<QueueEntry> stash_;
};

} // namespace enode

#endif // ENODE_RUNTIME_BATCHER_H
