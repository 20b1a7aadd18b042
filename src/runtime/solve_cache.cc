#include "runtime/solve_cache.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/trace_span.h"

namespace enode {

SolveCache::SolveCache(CacheOptions opts) : opts_(opts)
{
    numShards_ = std::max<std::size_t>(1, opts_.shards);
    // Per-shard budget rounds up so the configured capacity is a floor,
    // not a ceiling that sharding silently erodes.
    if (opts_.exactCapacity > 0) {
        exactPerShard_ = (opts_.exactCapacity + numShards_ - 1) / numShards_;
        exactShards_ = std::make_unique<ExactShard[]>(numShards_);
    }
    if (opts_.warmCapacity > 0) {
        warmPerShard_ = (opts_.warmCapacity + numShards_ - 1) / numShards_;
        warmShards_ = std::make_unique<WarmShard[]>(numShards_);
    }
}

void
SolveCache::evictLocked(ExactShard &shard)
{
    // Walk from the cold end, skipping pending entries: they hold
    // follower promises and are owned by an in-flight solve, so they
    // leave only through publishSuccess/publishFailure. A shard can
    // briefly exceed its budget when every resident entry is pending.
    auto it = shard.lru.end();
    while (shard.map.size() > exactPerShard_ && it != shard.lru.begin()) {
        --it;
        if (!it->ready)
            continue;
        shard.map.erase(it->key);
        it = shard.lru.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

SolveCache::Lookup
SolveCache::lookupOrAttach(const Hash128 &key, QueueEntry &entry,
                           Tensor &out)
{
    if (!exactShards_)
        return Lookup::Owner;
    TraceSpan span("cache.lookup", "cache");
    ExactShard &shard = exactShard(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto found = shard.map.find(key);
    if (found == shard.map.end()) {
        // Register the owner under the same lock that saw the miss, so
        // no identical request can miss in between and solve twice.
        shard.lru.emplace_front();
        shard.lru.front().key = key;
        shard.map.emplace(key, shard.lru.begin());
        evictLocked(shard);
        misses_.fetch_add(1, std::memory_order_relaxed);
        span.arg("outcome", 0.0);
        return Lookup::Owner;
    }
    auto node = found->second;
    if (node->ready) {
        out.copyFrom(node->value);
        shard.lru.splice(shard.lru.begin(), shard.lru, node);
        exactHits_.fetch_add(1, std::memory_order_relaxed);
        span.arg("outcome", 1.0);
        return Lookup::Hit;
    }
    node->followers.push_back(std::move(entry));
    singleFlightWaits_.fetch_add(1, std::memory_order_relaxed);
    span.arg("outcome", 2.0);
    return Lookup::Attached;
}

std::vector<QueueEntry>
SolveCache::publishSuccess(const Hash128 &key, const Tensor &output)
{
    std::vector<QueueEntry> followers;
    if (!exactShards_)
        return followers;
    TraceSpan span("cache.insert", "cache");
    ExactShard &shard = exactShard(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto found = shard.map.find(key);
    if (found == shard.map.end())
        return followers; // no owner registered the key
    ExactEntry &e = *found->second;
    e.value.copyFrom(output);
    e.ready = true;
    followers.swap(e.followers);
    shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
    inserts_.fetch_add(1, std::memory_order_relaxed);
    evictLocked(shard);
    span.arg("followers", static_cast<double>(followers.size()));
    return followers;
}

std::vector<QueueEntry>
SolveCache::publishFailure(const Hash128 &key)
{
    std::vector<QueueEntry> followers;
    if (!exactShards_)
        return followers;
    ExactShard &shard = exactShard(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto found = shard.map.find(key);
    if (found == shard.map.end() || found->second->ready)
        return followers; // nothing pending to retract
    followers.swap(found->second->followers);
    shard.lru.erase(found->second);
    shard.map.erase(found);
    return followers;
}

std::vector<QueueEntry>
SolveCache::drainPending()
{
    std::vector<QueueEntry> followers;
    if (!exactShards_)
        return followers;
    for (std::size_t s = 0; s < numShards_; s++) {
        ExactShard &shard = exactShards_[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (auto it = shard.lru.begin(); it != shard.lru.end();) {
            if (it->ready) {
                ++it;
                continue;
            }
            for (QueueEntry &f : it->followers)
                followers.push_back(std::move(f));
            shard.map.erase(it->key);
            it = shard.lru.erase(it);
        }
    }
    return followers;
}

bool
SolveCache::warmLookup(std::uint64_t sig, DtSchedule &out)
{
    if (!warmShards_ || sig == 0)
        return false;
    TraceSpan span("cache.lookup", "cache");
    span.arg("tier", 2.0);
    WarmShard &shard = warmShard(sig);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto found = shard.map.find(sig);
    if (found == shard.map.end()) {
        span.arg("outcome", 0.0);
        return false;
    }
    // Element-wise copy assignment reuses out's segment capacity.
    out.layers = found->second->schedule.layers;
    shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
    warmHits_.fetch_add(1, std::memory_order_relaxed);
    span.arg("outcome", 1.0);
    return true;
}

void
SolveCache::warmInsert(std::uint64_t sig, const WarmStartController &src)
{
    if (!warmShards_ || sig == 0 || src.recordedLayers() == 0)
        return;
    TraceSpan span("cache.insert", "cache");
    span.arg("tier", 2.0);
    WarmShard &shard = warmShard(sig);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto found = shard.map.find(sig);
    if (found == shard.map.end()) {
        shard.lru.emplace_front();
        shard.lru.front().sig = sig;
        shard.map.emplace(sig, shard.lru.begin());
        found = shard.map.find(sig);
    } else {
        shard.lru.splice(shard.lru.begin(), shard.lru, found->second);
    }
    // Refresh in place: a newer clean solve of the same bucket is a
    // better (or equally good) predictor than the one it replaces.
    src.harvestRecorded(found->second->schedule);
    inserts_.fetch_add(1, std::memory_order_relaxed);
    while (shard.map.size() > warmPerShard_) {
        shard.map.erase(shard.lru.back().sig);
        shard.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::size_t
SolveCache::exactSize() const
{
    std::size_t n = 0;
    for (std::size_t s = 0; exactShards_ && s < numShards_; s++) {
        std::lock_guard<std::mutex> lock(exactShards_[s].mutex);
        n += exactShards_[s].map.size();
    }
    return n;
}

std::size_t
SolveCache::warmSize() const
{
    std::size_t n = 0;
    for (std::size_t s = 0; warmShards_ && s < numShards_; s++) {
        std::lock_guard<std::mutex> lock(warmShards_[s].mutex);
        n += warmShards_[s].map.size();
    }
    return n;
}

StatGroup
SolveCache::snapshot() const
{
    StatGroup group("cache");
    group.setCounter("cache.exact_hit", exactHits());
    group.setCounter("cache.warm_hit", warmHits());
    group.setCounter("cache.miss", misses());
    group.setCounter("cache.evict", evictions());
    group.setCounter("cache.insert", inserts());
    group.setCounter("cache.single_flight_waits", singleFlightWaits());
    group.set("cache.exact_size", static_cast<double>(exactSize()));
    group.set("cache.warm_size", static_cast<double>(warmSize()));
    group.set("cache.exact_capacity",
              static_cast<double>(opts_.exactCapacity));
    group.set("cache.warm_capacity",
              static_cast<double>(opts_.warmCapacity));
    return group;
}

} // namespace enode
