#include "runtime/batcher.h"

#include <utility>

#include "common/logging.h"

namespace enode {

Batcher::Batcher(RequestQueue &queue, std::size_t maxBatch)
    : queue_(queue), maxBatch_(maxBatch)
{
    ENODE_ASSERT(maxBatch_ >= 1, "batcher needs maxBatch >= 1");
}

bool
Batcher::expire(QueueEntry &entry, CollectedBatch &out)
{
    if (RuntimeClock::now() <= entry.request.deadline)
        return false;
    out.expired.push_back(std::move(entry));
    return true;
}

bool
Batcher::compatible(const QueueEntry &a, const QueueEntry &b)
{
    // One batched solve stacks the states into a single tensor, so the
    // shapes must match exactly. Stream and deadline stay per-request:
    // the queue already ordered dispatch, and the solver tracks each
    // sample's deadline through its own guard. The admission version
    // need not match: the worker swaps weights only between dispatches,
    // so the whole batch runs on the version current at dispatch, and
    // the cache's clean gate checks each request's own stamp.
    // Training tasks never coalesce with anything.
    return a.request.train == nullptr && b.request.train == nullptr &&
           a.request.input.shape() == b.request.input.shape();
}

void
Batcher::fill(CollectedBatch &out, QueueEntry seed, const QueueEntry *task)
{
    out.firstPop = RuntimeClock::now();
    out.entries.push_back(std::move(seed));
    // A training task ships solo: it cannot share a batched solve.
    if (out.entries.front().request.train != nullptr)
        return;
    // Only a head that can join the batch leaves the queue. One that
    // cannot ends the batch where it stands, and the queue's order
    // decides what dispatches next.
    const auto joins = [&](const QueueEntry &head) {
        return compatible(out.entries.front(), head) &&
               (task == nullptr || queue_.preempts(head, *task));
    };
    while (out.entries.size() < maxBatch_) {
        std::optional<QueueEntry> next = queue_.tryPop(joins);
        if (!next)
            break; // nothing that joins is queued: solve, never wait
        if (expire(*next, out))
            continue; // keep the slot open
        out.entries.push_back(std::move(*next));
    }
}

bool
Batcher::collect(CollectedBatch &out)
{
    out.entries.clear();
    out.expired.clear();

    // Seed: block for the queue's head. Requests already past their
    // deadline are diverted to `expired` and the hunt continues — but
    // never past queue closure, and never by blocking while casualties
    // are in hand.
    std::optional<QueueEntry> seed;
    for (;;) {
        if (!out.expired.empty()) {
            // Expired entries are waiting on their terminal responses.
            // If the queue has nothing ready right now, ship them
            // instead of parking in a blocking pop — a backlog of lapsed
            // deadlines on a quiet queue would otherwise hang unanswered
            // until the next arrival or shutdown. The next collect()
            // resumes the blocking hunt.
            seed = queue_.tryPop();
            if (!seed)
                return true;
        } else {
            seed = queue_.pop();
            if (!seed)
                return false; // closed and drained
        }
        if (!expire(*seed, out))
            break;
    }
    fill(out, std::move(*seed), nullptr);
    return true;
}

bool
Batcher::collectAhead(const QueueEntry &task, CollectedBatch &out)
{
    out.entries.clear();
    out.expired.clear();

    const auto preempts = [&](const QueueEntry &head) {
        return queue_.preempts(head, task);
    };
    std::optional<QueueEntry> seed;
    for (;;) {
        seed = queue_.tryPop(preempts);
        if (!seed)
            return !out.expired.empty();
        if (!expire(*seed, out))
            break;
    }
    fill(out, std::move(*seed), &task);
    return true;
}

} // namespace enode
