#include "runtime/request_queue.h"

#include <algorithm>

#include "common/logging.h"

namespace enode {

RequestQueue::RequestQueue(std::size_t capacity, SelectPolicy policy)
    : capacity_(capacity), policy_(policy)
{
    ENODE_ASSERT(capacity_ >= 1, "request queue needs capacity >= 1");
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

std::optional<QueueEntry>
RequestQueue::pop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    notEmpty_.wait(lock, [this] { return closed_ || !heap_.empty(); });
    if (heap_.empty())
        return std::nullopt; // closed and drained
    return popHead();
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
