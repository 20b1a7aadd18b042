#include "runtime/batcher.h"

#include <utility>

#include "common/logging.h"

namespace enode {

Batcher::Batcher(RequestQueue &queue, std::size_t maxBatch,
                 SolveCache *cache)
    : queue_(queue), maxBatch_(maxBatch), cache_(cache)
{
    ENODE_ASSERT(maxBatch_ >= 1, "batcher needs maxBatch >= 1");
}

bool
Batcher::divert(QueueEntry &entry, CollectedBatch &out)
{
    if (RuntimeClock::now() > entry.request.deadline) {
        out.expired.push_back(std::move(entry));
        return true;
    }
    // A request whose result is already cached never seeds (or
    // occupies a slot of) a batch.
    if (cache_ == nullptr || !entry.request.cacheKey.valid())
        return false;
    Tensor value;
    if (!cache_->tryServe(entry.request.cacheKey, value))
        return false;
    out.cacheHits.push_back({std::move(entry), std::move(value)});
    return true;
}

bool
Batcher::compatible(const QueueEntry &a, const QueueEntry &b)
{
    // One batched solve stacks the states into a single tensor, so the
    // shapes must match exactly. Stream and deadline stay per-request:
    // the queue already ordered dispatch, and the solver tracks each
    // sample's deadline through its own guard.
    //
    // The model version must match too: a queue can hold admissions
    // from both sides of a weight hot swap, and one batched solve runs
    // on exactly one replica version — mixing them would silently
    // serve the older requests with the newer weights (or vice versa)
    // and break the cache-key/version correspondence.
    // Training tasks never coalesce with anything.
    return a.request.train == nullptr && b.request.train == nullptr &&
           a.request.modelVersion == b.request.modelVersion &&
           a.request.input.shape() == b.request.input.shape();
}

bool
Batcher::takeStash(QueueEntry &out, const QueueEntry *task)
{
    std::lock_guard<std::mutex> lock(stashMutex_);
    if (stash_.empty() ||
        (task != nullptr && !queue_.preempts(stash_.front(), *task)))
        return false;
    out = std::move(stash_.front());
    stash_.pop_front();
    return true;
}

void
Batcher::putStash(QueueEntry entry)
{
    // A FIFO, not a single slot: workers collect concurrently, and two
    // collectors may each stash the incompatible entry that ended their
    // batch before either seeds its next one.
    std::lock_guard<std::mutex> lock(stashMutex_);
    stash_.push_back(std::move(entry));
}

void
Batcher::fill(CollectedBatch &out, QueueEntry seed, const QueueEntry *task)
{
    out.firstPop = RuntimeClock::now();
    out.entries.push_back(std::move(seed));
    // A training task ships solo: it cannot share a batched solve.
    if (out.entries.front().request.train != nullptr)
        return;
    while (out.entries.size() < maxBatch_) {
        QueueEntry next;
        if (!queue_.tryPop(next, task))
            break; // nothing queued: solve what we have, never wait
        if (divert(next, out))
            continue; // expired or answered from cache; keep the slot open
        if (!compatible(out.entries.front(), next)) {
            // The incompatible request seeds the next batch rather
            // than being solved out of order or dropped.
            putStash(std::move(next));
            break;
        }
        out.entries.push_back(std::move(next));
    }
}

bool
Batcher::collect(CollectedBatch &out)
{
    out.entries.clear();
    out.expired.clear();
    out.cacheHits.clear();

    // Seed: the stashed incompatible request from a previous batch
    // goes first (it was dispatched by the queue before anything still
    // queued), otherwise block for the next queued request. Requests
    // already past their deadline are diverted to `expired` and the
    // hunt continues — but never past queue closure, and never by
    // blocking while casualties are in hand.
    QueueEntry seed;
    for (;;) {
        if (!takeStash(seed)) {
            if (!out.expired.empty() || !out.cacheHits.empty()) {
                // Diverted entries are waiting on their terminal
                // responses. If the queue has nothing ready right now,
                // ship them instead of parking in a blocking pop — a
                // backlog of lapsed deadlines on a quiet queue would
                // otherwise hang unanswered until the next arrival or
                // shutdown. The next collect() resumes the blocking
                // hunt.
                if (!queue_.tryPop(seed))
                    return true;
            } else if (!queue_.pop(seed)) {
                // Queue closed and drained — but another worker may
                // have stashed an entry while this one blocked in pop.
                // A final stash check keeps shutdown from stranding it.
                if (!takeStash(seed))
                    return false;
            }
        }
        if (!divert(seed, out))
            break;
    }
    fill(out, std::move(seed), nullptr);
    return true;
}

bool
Batcher::collectAhead(const QueueEntry &task, CollectedBatch &out)
{
    out.entries.clear();
    out.expired.clear();
    out.cacheHits.clear();

    // Stash first, as in collect(): the queue dispatched it earlier.
    QueueEntry seed;
    for (;;) {
        if (!takeStash(seed, &task) && !queue_.tryPop(seed, &task))
            return !out.expired.empty() || !out.cacheHits.empty();
        if (!divert(seed, out))
            break;
    }
    fill(out, std::move(seed), &task);
    return true;
}

} // namespace enode
