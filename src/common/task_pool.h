#ifndef ENODE_COMMON_TASK_POOL_H
#define ENODE_COMMON_TASK_POOL_H

/**
 * @file
 * Persistent intra-op worker pool: the software "core ring".
 *
 * The paper's throughput comes from a ring of NN cores evaluating one f
 * cooperatively — each core holds the weights it needs and row tiles of
 * work flow between them (Sec. V, Fig. 8-9). The software analogue is a
 * small pool of persistent worker threads splitting one kernel's
 * iteration space. TaskPool provides exactly that:
 *
 *  - Workers are spawned once (lazily, on the first parallel call) and
 *    park on a condition variable between calls — no per-call thread
 *    spawn, so even sub-millisecond kernels can be split profitably.
 *  - parallelFor() uses *static partitioning*: the chunk boundaries are
 *    a pure function of (range, grain, width), never of timing. The
 *    kernels built on it produce bitwise identical results at every
 *    thread count because each output element's accumulation order is
 *    contained entirely within one chunk.
 *  - Chunks are assigned to specific workers round-robin with a
 *    per-call rotating offset, so (a) concurrent callers spread over
 *    the ring instead of piling onto worker 0 and (b) every worker
 *    executes every kernel's chunk shape within a handful of calls,
 *    which lets each worker's thread-local Workspace arena warm up to a
 *    closed working set (the zero-allocation property survives
 *    parallelism).
 *
 * The pool is shared, not per-caller: a serving runtime with W request
 * workers at intra-op width T needs one pool of W*(T-1) threads, and
 * total running threads stay bounded by W + poolThreads regardless of
 * how calls interleave (see runtime/inference_server.h for the
 * oversubscription clamp).
 *
 * Kernels do not take a pool parameter. They call intraOpParallelFor(),
 * which consults a thread-local execution scope installed with
 * IntraOpScope; without a scope the call runs inline on the caller —
 * the serial path, byte for byte the PR 2 kernels.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace enode {

/** Persistent pool of parking worker threads with static-partition
 *  parallelFor. Thread-safe: any number of threads may call
 *  parallelFor concurrently on one pool. */
class TaskPool
{
  public:
    /**
     * A chunk body: processes items [begin, end) of the range. It
     * refers to the caller's callable and does not own it, so building
     * one from a lambda makes no heap call whatever the lambda
     * captures. Pass the lambda straight to parallelFor, which returns
     * only after every chunk has finished: the callable then outlives
     * every call through it. A ChunkFn variable built from a temporary
     * would dangle.
     */
    class ChunkFn
    {
      public:
        template <typename F,
                  typename = std::enable_if_t<
                      !std::is_same_v<std::remove_cvref_t<F>, ChunkFn>>>
        ChunkFn(F &&fn)
            : callable_(const_cast<void *>(
                  static_cast<const void *>(std::addressof(fn)))),
              call_([](void *callable, std::size_t begin, std::size_t end) {
                  (*static_cast<std::remove_reference_t<F> *>(callable))(
                      begin, end);
              })
        {
        }

        void operator()(std::size_t begin, std::size_t end) const
        {
            call_(callable_, begin, end);
        }

      private:
        void *callable_;
        void (*call_)(void *, std::size_t, std::size_t);
    };

    /**
     * @param workers Extra worker threads beyond the caller. 0 is valid
     *        (every parallelFor runs inline). Threads are not spawned
     *        until the first parallel call needs them.
     */
    explicit TaskPool(std::size_t workers);

    /** Joins the ring (waits for in-flight chunks to finish). */
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /**
     * Split [0, range) into contiguous chunks of at least `grain` items
     * and run `fn` over every chunk, the caller executing chunk 0 and
     * the pool workers the rest; returns when all chunks are done.
     *
     * Partitioning is static: ways = min(maxWays, workers + 1,
     * range / grain) chunks in a balanced contiguous split (the first
     * range % ways chunks get one extra item) — a pure function of
     * (range, grain, ways), independent of scheduling. With ways <= 1
     * (or when called from inside a pool worker — nested parallelism
     * degenerates) fn(0, range) runs inline on the caller.
     *
     * @param grain Minimum items per chunk (>= 1).
     * @param range Total item count; fn covers [0, range) exactly once.
     * @param fn Chunk body. Runs concurrently on distinct chunks; must
     *        not touch shared mutable state across chunk boundaries.
     * @param maxWays Cap on the number of chunks (0 = workers + 1); the
     *        intra-op width knob.
     */
    void parallelFor(std::size_t grain, std::size_t range,
                     const ChunkFn &fn, std::size_t maxWays = 0);

    /**
     * Run `fn` once on every pool worker thread (not the caller),
     * serialized per worker; returns when all have run. Used by tests
     * and benches to reset/collect each worker's thread-local Workspace
     * stats. Spawns the workers if the pool is still parked.
     */
    void runOnWorkers(const std::function<void()> &fn);

    /** Widest split parallelFor can produce (workers + caller). */
    std::size_t width() const { return workerTarget_ + 1; }

    /** True when the calling thread is one of this process's pool
     *  workers (any pool). Nested parallelFor calls detect this and
     *  run inline. */
    static bool onWorkerThread();

    /**
     * The process-wide shared pool, hardware-sized by default
     * (hardware_concurrency - 1 workers). Never destroyed before
     * thread-local Workspace arenas of the main thread.
     */
    static TaskPool &global();

  private:
    /** One parallelFor invocation in flight. */
    struct Batch
    {
        const ChunkFn *fn = nullptr;
        std::size_t range = 0;
        std::size_t ways = 0;
        std::size_t done = 0; ///< worker chunks finished (pool mutex)
        std::condition_variable cv; ///< caller waits for done == ways - 1
    };

    /** A unit of queued work: one chunk of one batch. */
    struct Job
    {
        Batch *batch = nullptr;
        std::size_t chunk = 0;
        const std::function<void()> *plain = nullptr; ///< runOnWorkers
        std::size_t *plainDone = nullptr;
        std::condition_variable *plainCv = nullptr;
    };

    void ensureStarted();
    void workerMain(std::size_t worker_id);
    static void runChunk(const Batch &batch, std::size_t chunk);

    const std::size_t workerTarget_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::vector<std::thread> threads_;      ///< spawned lazily
    std::vector<std::deque<Job>> mailbox_;  ///< per-worker job queues
    std::size_t nextOffset_ = 0; ///< rotating chunk->worker offset
    bool started_ = false;
    bool shutdown_ = false;
};

/**
 * Scoped intra-op execution context: while alive on this thread, the
 * conv kernels (and anything else calling intraOpParallelFor) split
 * their work `width` ways on `pool`. Serving workers install one scope
 * for their whole lifetime; width 1 or a null pool means serial.
 */
class IntraOpScope
{
  public:
    IntraOpScope(TaskPool *pool, std::size_t width);
    ~IntraOpScope();

    IntraOpScope(const IntraOpScope &) = delete;
    IntraOpScope &operator=(const IntraOpScope &) = delete;

    /** The calling thread's current pool (null = serial). */
    static TaskPool *currentPool();
    /** The calling thread's current width (1 = serial). */
    static std::size_t currentWidth();

  private:
    TaskPool *prevPool_;
    std::size_t prevWidth_;
};

/**
 * parallelFor against the calling thread's IntraOpScope: inline serial
 * execution (fn(0, range)) when no scope is installed, width-capped
 * pool execution when one is. This is the only entry point the kernels
 * use, so library code stays oblivious to where its threads come from.
 */
void intraOpParallelFor(std::size_t grain, std::size_t range,
                        const TaskPool::ChunkFn &fn);

} // namespace enode

#endif // ENODE_COMMON_TASK_POOL_H
