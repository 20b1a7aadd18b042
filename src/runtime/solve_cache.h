#ifndef ENODE_RUNTIME_SOLVE_CACHE_H
#define ENODE_RUNTIME_SOLVE_CACHE_H

/**
 * @file
 * Two-tier cross-solve cache for repeat inference traffic.
 *
 * Production edge traffic repeats similar initial conditions millions
 * of times; the paper's slope-adaptive search (Sec. VII.A) learns good
 * step sizes only *within* one solve. This cache learns *across*
 * solves, at two granularities:
 *
 *  - **Tier 1 — exact dedup.** Keyed by a strong 128-bit digest of
 *    (model version, solver configuration, input tensor bytes) — see
 *    tensor/hash.h. A hit skips the solve entirely and returns a copy
 *    of the cached output, bitwise identical to what a fresh solve of
 *    the same server would produce (the solver is deterministic given
 *    weights + config + input). Entries are single-flight: while the
 *    first request with a key (the *owner*) is solving, later identical
 *    requests attach to its pending entry as *followers* and are
 *    delivered from the owner's result — N concurrent identical
 *    requests cost one solve.
 *
 *  - **Tier 2 — warm start.** Keyed by a coarse input signature
 *    (quantized input statistics). A hit returns the accepted
 *    dt-schedule of a previous *clean* solve of a statistically similar
 *    input, which the serving path replays through a
 *    WarmStartController (ode/warm_start.h) as first-trial proposals.
 *    Correctness stays with the solver's error test: a stale schedule
 *    costs one rejected trial before the adaptive search takes over.
 *
 * Only *clean* solves populate either tier: status Ok, no degradation
 * ladder rung taken, no retries, and actually delivered by the worker
 * (not taken over by the hang watchdog). Degraded, failed, expired,
 * watchdog-failed, and chaos-corrupted solves are uncacheable, so a
 * fault can never be replayed out of the cache.
 *
 * Concurrency: both tiers are sharded — each shard owns a mutex, an
 * open-addressed-enough unordered_map, and an intrusive LRU list.
 * Shard choice comes off the (already avalanched) key bits, so shard
 * contention is uniform. Capacity is bounded per tier; eviction is LRU
 * among *ready* entries (a pending entry is never evicted — its
 * followers' promises live in it).
 *
 * Memory: cached outputs are value Tensors; the workspace arena
 * (tensor/workspace.h) recycles their buffers across insert/evict, and
 * the hit path copies into pooled storage — zero steady-state heap
 * allocation in both directions.
 */

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "ode/warm_start.h"
#include "runtime/request_queue.h"
#include "tensor/hash.h"

namespace enode {

/** Solve-cache configuration (ServerOptions::cache). */
struct CacheOptions
{
    /** Master switch; disabled costs nothing on any path. */
    bool enabled = false;

    /** Tier-1 capacity in entries (0 disables exact dedup). */
    std::size_t exactCapacity = 1024;

    /** Tier-2 capacity in schedules (0 disables warm-starting). */
    std::size_t warmCapacity = 256;

    /** Lock shards per tier (rounded up to at least 1). */
    std::size_t shards = 8;

    /**
     * Quantization grid of the warm-start input signature: inputs whose
     * mean/RMS fall in the same `signatureQuantum`-sized bucket share a
     * schedule. Coarser = more reuse, more first-trial rejections.
     */
    double signatureQuantum = 0.05;
};

/** Sharded two-tier solve cache. Thread-safe; see file comment. */
class SolveCache
{
  public:
    explicit SolveCache(CacheOptions opts);

    SolveCache(const SolveCache &) = delete;
    SolveCache &operator=(const SolveCache &) = delete;

    /** Verdict of the admission-path lookup. */
    enum class Lookup
    {
        Hit,      ///< `out` holds the cached output; respond immediately
        Attached, ///< entry joined a pending solve; its promise will be
                  ///< fulfilled when the owner publishes
        Miss      ///< no entry; caller should queue and registerPending
    };

    /**
     * Admission-path lookup, atomic per shard. On Hit, `out` receives a
     * copy of the cached value and `entry` is untouched. On Attached,
     * `entry` (promise included) has been moved into the pending
     * entry's follower list. On Miss, `entry` is untouched.
     */
    Lookup lookupOrAttach(const Hash128 &key, QueueEntry &entry,
                          Tensor &out);

    /**
     * Mark `key` in-flight so later identical requests attach instead
     * of solving. Call after the owner request is safely queued.
     * @return false when an entry (pending or ready) already exists —
     *         harmless; the raced request simply solves and publishes.
     */
    bool registerPending(const Hash128 &key);

    /**
     * Dispatch-time screen (the batcher's pop screen): true when a
     * ready value exists (the key may have become ready while the
     * request sat in the queue). Copies the value into `out` and bumps
     * the LRU. Pending entries miss.
     */
    bool tryServe(const Hash128 &key, Tensor &out);

    /** Lock-and-peek variant of tryServe without the value copy or
     *  the LRU bump (does not count as a hit). */
    bool isReady(const Hash128 &key) const;

    /**
     * A clean solve of `key` finished with `output`. Stores the value
     * (entering LRU rotation) and detaches any followers; the caller
     * delivers each follower a copy of `output` as its response.
     */
    std::vector<QueueEntry> publishSuccess(const Hash128 &key,
                                           const Tensor &output);

    /**
     * The solve of `key` ended uncacheably (degraded, failed, expired,
     * cancelled, or watchdog-failed). Drops the pending entry and
     * returns its followers; the caller re-dispatches them as ordinary
     * requests (each then solves and publishes for itself). A ready
     * entry is left untouched — a concurrent owner's good value is not
     * invalidated by a later failure.
     */
    std::vector<QueueEntry> publishFailure(const Hash128 &key);

    /**
     * Shutdown sweep: remove every pending entry and return all
     * followers so they can be cancelled. Ready values stay (harmless;
     * the server is tearing down).
     */
    std::vector<QueueEntry> drainPending();

    /**
     * Tier-2 lookup: copy the schedule cached under `sig` into `out`
     * (reusing its capacity) and bump the LRU. `sig` 0 never matches
     * (the serving path uses 0 as "no signature").
     */
    bool warmLookup(std::uint64_t sig, DtSchedule &out);

    /**
     * Tier-2 insert/refresh: harvest the schedule `src` recorded during
     * the solve that just finished cleanly directly into the entry
     * under one shard lock (no intermediate copy).
     */
    void warmInsert(std::uint64_t sig, const WarmStartController &src);

    // Observability ------------------------------------------------

    /** Counters + sizes as a "cache" StatGroup for exposition. */
    StatGroup snapshot() const;

    std::uint64_t exactHits() const { return exactHits_.load(); }
    std::uint64_t warmHits() const { return warmHits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t evictions() const { return evictions_.load(); }
    std::uint64_t inserts() const { return inserts_.load(); }
    std::uint64_t singleFlightWaits() const
    {
        return singleFlightWaits_.load();
    }

    /** Entries currently stored (ready + pending) across shards. */
    std::size_t exactSize() const;
    /** Schedules currently stored across shards. */
    std::size_t warmSize() const;

    const CacheOptions &options() const { return opts_; }

  private:
    struct ExactEntry
    {
        Hash128 key;
        bool ready = false;
        Tensor value;
        std::vector<QueueEntry> followers;
    };

    /** The digest is already avalanched; one word of it is the table
     *  hash, equality compares all 128 bits. */
    struct KeyHasher
    {
        std::size_t operator()(const Hash128 &k) const
        {
            return static_cast<std::size_t>(k.lo);
        }
    };

    /** One lock's worth of the exact tier: LRU list (front = hottest)
     *  plus a key -> list-node index. */
    struct ExactShard
    {
        mutable std::mutex mutex;
        std::list<ExactEntry> lru;
        std::unordered_map<Hash128, std::list<ExactEntry>::iterator,
                           KeyHasher>
            map;
    };

    struct WarmEntry
    {
        std::uint64_t sig = 0;
        DtSchedule schedule;
    };

    struct WarmShard
    {
        mutable std::mutex mutex;
        std::list<WarmEntry> lru;
        std::unordered_map<std::uint64_t,
                           std::list<WarmEntry>::iterator>
            map;
    };

    ExactShard &exactShard(const Hash128 &key)
    {
        return exactShards_[key.hi % numShards_];
    }
    const ExactShard &exactShard(const Hash128 &key) const
    {
        return exactShards_[key.hi % numShards_];
    }
    WarmShard &warmShard(std::uint64_t sig)
    {
        return warmShards_[mix64(sig) % numShards_];
    }

    /** Evict ready LRU entries until the shard is within its budget.
     *  Caller holds the shard mutex. */
    void evictLocked(ExactShard &shard);

    CacheOptions opts_;
    std::size_t numShards_ = 1;
    std::size_t exactPerShard_ = 0; ///< capacity budget per shard
    std::size_t warmPerShard_ = 0;
    /** Fixed arrays (shards hold a mutex, so no vector growth); null
     *  when the tier is disabled. */
    std::unique_ptr<ExactShard[]> exactShards_;
    std::unique_ptr<WarmShard[]> warmShards_;

    std::atomic<std::uint64_t> exactHits_{0};
    std::atomic<std::uint64_t> warmHits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> inserts_{0};
    std::atomic<std::uint64_t> singleFlightWaits_{0};
};

} // namespace enode

#endif // ENODE_RUNTIME_SOLVE_CACHE_H
