#include "runtime/batcher.h"

#include <chrono>
#include <utility>

#include "common/logging.h"

namespace enode {

namespace {

double
toMs(RuntimeClock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

bool
expiredAt(const QueueEntry &entry, RuntimeClock::time_point now)
{
    return now > entry.request.deadline;
}

} // namespace

Batcher::Batcher(RequestQueue &queue, std::size_t maxBatch,
                 double maxWaitUs, SolveCache *cache,
                 const AdmissionController *admission)
    : queue_(queue), maxBatch_(maxBatch), maxWaitUs_(maxWaitUs),
      cache_(cache), admission_(admission)
{
    ENODE_ASSERT(maxBatch_ >= 1, "batcher needs maxBatch >= 1");
    ENODE_ASSERT(maxWaitUs_ >= 0.0, "negative collect window");
}

bool
Batcher::takeCached(QueueEntry &entry, CollectedBatch &out)
{
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
    // The model version must match too: a collect window can span a
    // weight hot swap, and one batched solve runs on exactly one
    // replica version — mixing admissions from both sides of the swap
    // would silently serve the older requests with the newer weights
    // (or vice versa) and break the cache-key/version correspondence.
    // Training tasks never coalesce with anything.
    return a.request.train == nullptr && b.request.train == nullptr &&
           a.request.modelVersion == b.request.modelVersion &&
           a.request.input.shape() == b.request.input.shape();
}

bool
Batcher::takeStash(QueueEntry &out)
{
    std::lock_guard<std::mutex> lock(stashMutex_);
    if (stash_.empty())
        return false;
    out = std::move(stash_.front());
    stash_.pop_front();
    return true;
}

void
Batcher::putStash(QueueEntry entry)
{
    // A FIFO, not a single slot: workers collect concurrently, and two
    // overlapping windows may each stash the incompatible arrival that
    // closed them before either seeds its next batch.
    std::lock_guard<std::mutex> lock(stashMutex_);
    stash_.push_back(std::move(entry));
}

bool
Batcher::collect(CollectedBatch &out)
{
    out.entries.clear();
    out.expired.clear();
    out.cacheHits.clear();
    out.collectWaitMs = 0.0;

    // Seed: the stashed incompatible request from a previous window
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
                if (queue_.popUntil(seed, RuntimeClock::now()) !=
                    PopStatus::Ok)
                    return true;
            } else if (!queue_.pop(seed)) {
                // Queue closed and drained — but another worker may
                // have stashed an entry while this one blocked in pop.
                // A final stash check keeps shutdown from stranding it.
                if (!takeStash(seed))
                    return false;
            }
        }
        if (expiredAt(seed, RuntimeClock::now())) {
            out.expired.push_back(std::move(seed));
            continue;
        }
        // A request whose result is already cached never seeds (or
        // delays) a batch: divert it and keep hunting for real work.
        if (takeCached(seed, out))
            continue;
        break;
    }

    out.firstPop = RuntimeClock::now();
    out.entries.push_back(std::move(seed));

    // A training task always ships solo and immediately: it cannot
    // share a batched solve, and holding a collect window open for it
    // would only delay the inference requests queued behind it.
    if (out.entries.front().request.train != nullptr)
        return true;

    if (maxBatch_ > 1) {
        // Brownout level >= 2 shrinks the collect window: under load,
        // draining queued work beats waiting for coalescing company.
        // Sampled once per window so one batch sees one policy.
        const double wait_us =
            maxWaitUs_ *
            (admission_ != nullptr ? admission_->collectWindowScale()
                                   : 1.0);
        const auto window_close =
            out.firstPop +
            std::chrono::duration_cast<RuntimeClock::duration>(
                std::chrono::duration<double, std::micro>(wait_us));
        while (out.entries.size() < maxBatch_) {
            QueueEntry next;
            const PopStatus status = queue_.popUntil(next, window_close);
            if (status != PopStatus::Ok)
                break; // window lapsed, or queue closed: ship what we have
            if (expiredAt(next, RuntimeClock::now())) {
                out.expired.push_back(std::move(next));
                continue;
            }
            if (takeCached(next, out))
                continue; // answered from cache; keep the slot open
            if (!compatible(out.entries.front(), next)) {
                // The incompatible request seeds the next batch rather
                // than being solved out of order or dropped.
                putStash(std::move(next));
                break;
            }
            out.entries.push_back(std::move(next));
        }
        out.collectWaitMs = toMs(RuntimeClock::now() - out.firstPop);
    }

    // Close-of-window sweep: deadlines that lapsed while the batch
    // waited for company. Applying the screen here (not just at pop)
    // keeps the invariant that an expired request is never solved.
    const auto close_time = RuntimeClock::now();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < out.entries.size(); i++) {
        if (expiredAt(out.entries[i], close_time)) {
            out.expired.push_back(std::move(out.entries[i]));
        } else {
            if (kept != i)
                out.entries[kept] = std::move(out.entries[i]);
            kept++;
        }
    }
    out.entries.resize(kept);
    return true;
}

} // namespace enode
