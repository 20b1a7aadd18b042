#include "runtime/request_queue.h"

#include <algorithm>

#include "common/logging.h"

namespace enode {

RequestQueue::RequestQueue(std::size_t capacity, SelectPolicy policy,
                           std::size_t maxBatch)
    : capacity_(capacity), policy_(policy), maxBatch_(maxBatch)
{
    ENODE_ASSERT(capacity_ >= 1, "request queue needs capacity >= 1");
    ENODE_ASSERT(maxBatch_ >= 1, "request queue needs maxBatch >= 1");
    heap_.reserve(capacity_);
}

bool
RequestQueue::dispatchesAfter(const QueueEntry &a, const QueueEntry &b) const
{
    if (policy_ == SelectPolicy::LaterStreamFirst) {
        if (a.request.stream != b.request.stream)
            return a.request.stream < b.request.stream;
        // Training loses every tie within its stream, whatever the
        // deadlines and admission order.
        if ((a.request.train == nullptr) != (b.request.train == nullptr))
            return a.request.train != nullptr;
        if (a.request.deadline != b.request.deadline)
            return a.request.deadline > b.request.deadline;
    }
    return a.seq > b.seq; // admission order last (and all of Fifo)
}

bool
RequestQueue::preempts(const QueueEntry &entry, const QueueEntry &task) const
{
    return entry.request.train == nullptr && dispatchesAfter(task, entry);
}

bool
RequestQueue::compatible(const QueueEntry &a, const QueueEntry &b)
{
    // One batched solve stacks the states into a single tensor, so the
    // shapes must match exactly. Stream and deadline stay per-request:
    // the order already ranked them, and the solver tracks each
    // sample's deadline through its own guard. The admission version
    // need not match: the worker swaps weights only between dispatches,
    // so the whole batch runs on the version current at dispatch, and
    // the cache's clean gate checks each request's own stamp.
    // Training tasks never coalesce with anything.
    return a.request.train == nullptr && b.request.train == nullptr &&
           a.request.input.shape() == b.request.input.shape();
}

bool
RequestQueue::tryPush(QueueEntry &entry)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Closed-queue and full-queue rejections are different events
        // and must be counted apart: a push racing shutdown used to
        // vanish from the books entirely, leaving rejected() short of
        // the producers actually turned away.
        if (closed_) {
            closedRejected_++;
            return false;
        }
        if (heap_.size() >= capacity_) {
            rejected_++;
            return false;
        }
        entry.seq = nextSeq_++;
        heap_.push_back(std::move(entry));
        std::push_heap(heap_.begin(), heap_.end(),
                       [this](const QueueEntry &a, const QueueEntry &b) {
                           return dispatchesAfter(a, b);
                       });
        peakSize_ = std::max(peakSize_, heap_.size());
        noteHead();
    }
    notEmpty_.notify_one();
    return true;
}

QueueEntry
RequestQueue::popHead()
{
    std::pop_heap(heap_.begin(), heap_.end(),
                  [this](const QueueEntry &a, const QueueEntry &b) {
                      return dispatchesAfter(a, b);
                  });
    QueueEntry head = std::move(heap_.back());
    heap_.pop_back();
    noteHead();
    return head;
}

void
RequestQueue::noteHead()
{
    inferenceHeads_.store(!heap_.empty() &&
                              heap_.front().request.train == nullptr,
                          std::memory_order_relaxed);
}

bool
RequestQueue::take(CollectedBatch &out, const QueueEntry *task)
{
    out.entries.clear();
    out.expired.clear();
    // One clock read screens the whole view, and stamps the seed's pop.
    const RuntimeClock::time_point now = RuntimeClock::now();
    const auto joins = [&](const QueueEntry &head) {
        return (task == nullptr || preempts(head, *task)) &&
               (out.entries.empty() || compatible(out.entries.front(), head));
    };
    // Only a head that can join the batch leaves the queue. One that
    // cannot ends the batch where it stands, and the order decides what
    // dispatches next. A lapsed head is diverted and keeps its slot
    // open; with nothing left to take, the casualties ship at once.
    while (out.entries.size() < maxBatch_ && !heap_.empty() &&
           joins(heap_.front())) {
        QueueEntry head = popHead();
        if (now > head.request.deadline) {
            out.expired.push_back(std::move(head));
            continue;
        }
        if (out.entries.empty())
            out.firstPop = now;
        out.entries.push_back(std::move(head));
    }
    return !out.entries.empty() || !out.expired.empty();
}

bool
RequestQueue::collect(CollectedBatch &out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    // Block only for a seed, never while holding casualties: take()
    // sweeps the queue as it stands once anything is there.
    notEmpty_.wait(lock, [this] { return closed_ || !heap_.empty(); });
    return take(out, nullptr); // false only when closed and drained
}

bool
RequestQueue::collectAhead(const QueueEntry &task, CollectedBatch &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return take(out, &task);
}

std::vector<QueueEntry>
RequestQueue::close(bool drain)
{
    std::vector<QueueEntry> leftovers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        if (!drain) {
            leftovers = std::move(heap_);
            heap_.clear();
            noteHead();
            // Cancellation order should match admission order, not heap
            // layout.
            std::sort(leftovers.begin(), leftovers.end(),
                      [](const QueueEntry &a, const QueueEntry &b) {
                          return a.seq < b.seq;
                      });
        }
    }
    notEmpty_.notify_all();
    return leftovers;
}

std::size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return heap_.size();
}

std::uint64_t
RequestQueue::rejected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_;
}

std::uint64_t
RequestQueue::closedRejected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closedRejected_;
}

std::size_t
RequestQueue::peakSize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return peakSize_;
}

} // namespace enode
