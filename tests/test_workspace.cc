/**
 * @file
 * The thread-local tensor workspace pool and the zero-allocation solver
 * hot path built on it.
 *
 * The pool's miss counter is a real heap allocation, so the central
 * assertions here — "misses == 0 after warm-up" — are the software
 * equivalent of the paper's fixed on-chip buffering claim: once the
 * working set is sized, an adaptive solve touches no allocator.
 */

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/trace_span.h"
#include "core/node_model.h"
#include "ode/ivp.h"
#include "ode/ode_function.h"
#include "ode/step_control.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

/**
 * Process-wide allocation counter: every operator new in this test
 * binary bumps it. The workspace pool's miss counter only sees pool
 * traffic; this sees *everything*, which is what the disarmed-tracer
 * overhead contract is stated against.
 */
static std::atomic<std::uint64_t> g_heap_allocs{0};

static void *
countedAlloc(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = std::malloc(size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

/**
 * A replacement operator-new family must be *complete*: libstdc++
 * internals (e.g. stable_sort's temporary buffer) allocate through the
 * nothrow and aligned forms, and under ASan a nothrow allocation served
 * by the un-replaced default paired with our malloc-backed delete is an
 * alloc-dealloc mismatch. Every form below funnels through malloc/free
 * so allocation and deallocation always agree.
 */
static void *
countedAllocNothrow(std::size_t size) noexcept
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    return std::malloc(size);
}

static void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = align;
    void *p = std::aligned_alloc(align, (size + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAllocNothrow(size);
}
void *operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAllocNothrow(size);
}
void *operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void *operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace enode {
namespace {

TEST(Workspace, AcquireReleaseRoundTrip)
{
    auto &ws = Workspace::local();
    ws.trim();
    ws.resetStats();

    auto buf = ws.acquire(1024);
    EXPECT_EQ(buf.size(), 1024u);
    EXPECT_EQ(ws.stats().misses, 1u);
    const float *ptr = buf.data();
    ws.release(std::move(buf));
    EXPECT_EQ(ws.stats().releases, 1u);
    EXPECT_EQ(ws.bytesHeld(), 1024u * sizeof(float));

    // Same size comes back as the same storage, counted as a hit.
    auto again = ws.acquire(1024);
    EXPECT_EQ(ws.stats().hits, 1u);
    EXPECT_EQ(again.data(), ptr);
    EXPECT_EQ(ws.bytesHeld(), 0u);

    // A different size is a fresh allocation, not a resized pooled one.
    auto other = ws.acquire(512);
    EXPECT_EQ(ws.stats().misses, 2u);
    ws.release(std::move(again));
    ws.release(std::move(other));
    ws.trim();
    EXPECT_EQ(ws.bytesHeld(), 0u);
}

TEST(Workspace, PerBucketCapDropsExcessBuffers)
{
    auto &ws = Workspace::local();
    ws.trim();
    ws.resetStats();

    std::vector<std::vector<float>> bufs;
    for (std::size_t i = 0; i < Workspace::kMaxPerBucket + 3; i++)
        bufs.push_back(ws.acquire(64));
    for (auto &b : bufs)
        ws.release(std::move(b));
    EXPECT_EQ(ws.stats().dropped, 3u);
    EXPECT_EQ(ws.bytesHeld(), Workspace::kMaxPerBucket * 64 * sizeof(float));
    ws.trim();
}

TEST(Workspace, TensorsRecycleStorageThroughThePool)
{
    auto &ws = Workspace::local();
    ws.trim();
    ws.resetStats();

    const float *ptr = nullptr;
    {
        Tensor t(Shape{32, 32});
        ptr = t.data();
    } // destructor releases to the pool
    Tensor t2(Shape{4, 16, 16}); // same numel: must reuse the buffer
    EXPECT_EQ(t2.data(), ptr);
    EXPECT_EQ(ws.stats().misses, 1u);

    // Move-assignment swaps buffers: the moved-from tensor carries the
    // target's old storage back to the pool instead of freeing it.
    ws.resetStats();
    {
        Tensor src(Shape{32, 32}, 3.0f); // pool hit or miss, don't care
        Tensor dst(Shape{32, 32});
        const float *dst_ptr = dst.data();
        dst = std::move(src);
        EXPECT_EQ(dst.at(0), 3.0f);
        // src now owns dst's old buffer; both return to the pool here.
        (void)dst_ptr;
    }
    const std::uint64_t misses_before = ws.stats().misses;
    Tensor reuse1(Shape{32, 32});
    Tensor reuse2(Shape{32, 32});
    EXPECT_EQ(ws.stats().misses, misses_before);
    ws.trim();
}

TEST(Workspace, InPlaceTensorOpsPreserveStorage)
{
    Tensor t(Shape{8, 8}, 2.0f);
    const float *ptr = t.data();

    t.scale(0.5f);
    EXPECT_EQ(t.at(0), 1.0f);
    t.fill(7.0f);
    EXPECT_EQ(t.at(63), 7.0f);

    // Same-numel resize and copyFrom keep the storage.
    t.resize(Shape{64});
    EXPECT_EQ(t.data(), ptr);
    Tensor src(Shape{64}, -1.0f);
    t.copyFrom(src);
    EXPECT_EQ(t.data(), ptr);
    EXPECT_EQ(t.at(0), -1.0f);
    EXPECT_EQ(t.shape().dims(), src.shape().dims());

    t.reset();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.shape().rank(), 0u);
}

/** dh/dt = -h with a mild nonlinearity, enough to keep rk23 adapting. */
class DecayOde : public OdeFunction
{
  public:
    Tensor
    eval(double t, const Tensor &h) override
    {
        countEval();
        Tensor d = h;
        const float s = static_cast<float>(-1.0 - 0.3 * std::sin(3.0 * t));
        for (std::size_t i = 0; i < d.numel(); i++)
            d.at(i) = s * d.at(i) + 0.01f * d.at(i) * d.at(i);
        return d;
    }
};

TEST(Workspace, SolveIvpAllocatesNothingAfterWarmup)
{
    Rng rng(7);
    const Tensor y0 = Tensor::randn(Shape{4, 16, 16}, rng, 0.5f);
    DecayOde f;
    FixedFactorController ctrl;
    IvpOptions opts;
    opts.tolerance = 1e-4;
    opts.recordCheckpoints = false; // inference-style solve
    IvpWorkspace solver_ws;

    // Warm-up sizes the trial/stage buffers and mints the pool's
    // working set. Keep only a value copy of the expected answer: the
    // warm results themselves are destroyed so their buffers return to
    // the pool (a *held* result legitimately owns one buffer; the
    // assertion below is about the per-step hot path, not about the
    // storage of outputs the caller retains).
    Tensor expected;
    std::uint64_t warm_points = 0;
    {
        auto warm = solveIvp(f, y0, 0.0, 1.0, ButcherTableau::rk23(), ctrl,
                             opts, nullptr, &solver_ws);
        ASSERT_GT(warm.stats.evalPoints, 1u);
        warm_points = warm.stats.evalPoints;
        expected.copyFrom(warm.yFinal);
    }
    // Second warm-up with `expected` live: the measured solve below must
    // run against the same set of outstanding buffers it will see.
    solveIvp(f, y0, 0.0, 1.0, ButcherTableau::rk23(), ctrl, opts, nullptr,
             &solver_ws);

    auto &pool = Workspace::local();
    pool.resetStats();
    auto res = solveIvp(f, y0, 0.0, 1.0, ButcherTableau::rk23(), ctrl,
                        opts, nullptr, &solver_ws);
    EXPECT_EQ(pool.stats().misses, 0u)
        << "adaptive solve hit the heap after warm-up";
    EXPECT_EQ(res.stats.evalPoints, warm_points);
    EXPECT_TRUE(Tensor::allClose(res.yFinal, expected, 0.0, 0.0));

    // Diagnostics on (training-style) must still record checkpoints and
    // leave the result numerically identical.
    opts.recordCheckpoints = true;
    auto recorded = solveIvp(f, y0, 0.0, 1.0, ButcherTableau::rk23(), ctrl,
                             opts, nullptr, &solver_ws);
    EXPECT_EQ(recorded.checkpoints.size(), recorded.stats.evalPoints);
    EXPECT_EQ(recorded.trialsPerPoint.size(), recorded.stats.evalPoints);
    EXPECT_TRUE(Tensor::allClose(recorded.yFinal, expected, 0.0, 0.0));
}

TEST(Workspace, WarmSolveIvpMakesNoHeapCalls)
{
    // Stronger than "no pool misses": a warmed solo solve makes no
    // operator-new call at all — no per-trial scratch (the error
    // weights are the tableau's, computed once) and nothing per step.
    Rng rng(11);
    const Tensor y0 = Tensor::randn(Shape{4, 16, 16}, rng, 0.5f);
    DecayOde f;
    FixedFactorController ctrl;
    IvpOptions opts;
    opts.tolerance = 1e-4;
    opts.recordCheckpoints = false;
    IvpWorkspace solver_ws;

    const auto solveOnce = [&] {
        return solveIvp(f, y0, 0.0, 1.0, ButcherTableau::rk23(), ctrl, opts,
                        nullptr, &solver_ws);
    };
    solveOnce();
    solveOnce();

    const std::uint64_t before =
        g_heap_allocs.load(std::memory_order_relaxed);
    const IvpResult res = solveOnce();
    const std::uint64_t delta =
        g_heap_allocs.load(std::memory_order_relaxed) - before;
    ASSERT_GT(res.stats.trials, 1u);
    EXPECT_EQ(delta, 0u) << "warm solve made heap calls over "
                         << res.stats.trials << " trials";
}

TEST(Workspace, WarmBatchedSolveHeapCallsIndependentOfTrialCount)
{
    // A batched forward returns freshly built per-sample vectors, a
    // fixed per-call footprint. Nothing may scale with the number of
    // trials: a tighter tolerance (more trials) makes the same number
    // of operator-new calls as a looser one.
    Rng rng(17);
    auto model = NodeModel::makeMlp(1, 16, 64, 2, rng);
    std::vector<Tensor> xs;
    for (int i = 0; i < 4; i++)
        xs.push_back(Tensor::randn(Shape{16}, rng, 0.5f));
    std::vector<FixedFactorController> ctrls(xs.size());
    std::vector<StepController *> ctrl_ptrs;
    for (auto &c : ctrls)
        ctrl_ptrs.push_back(&c);

    struct Count
    {
        std::uint64_t heapCalls;
        std::uint64_t trials;
    };
    const auto warmCount = [&](double tolerance) {
        IvpOptions opts;
        opts.tolerance = tolerance;
        opts.initialDt = 0.05;
        opts.recordCheckpoints = false;
        const auto run = [&] {
            return model->forwardBatched(xs, ButcherTableau::rk23(),
                                         ctrl_ptrs, opts);
        };
        run();
        run();
        const std::uint64_t before =
            g_heap_allocs.load(std::memory_order_relaxed);
        const BatchedForwardResult res = run();
        Count c{g_heap_allocs.load(std::memory_order_relaxed) - before, 0};
        for (const IvpStats &st : res.stats)
            c.trials += st.trials;
        return c;
    };

    const Count loose = warmCount(1e-2);
    const Count tight = warmCount(1e-5);
    ASSERT_GT(tight.trials, loose.trials);
    EXPECT_EQ(tight.heapCalls, loose.heapCalls)
        << "heap calls grew with trials: " << loose.trials << " trials -> "
        << loose.heapCalls << " calls, " << tight.trials << " trials -> "
        << tight.heapCalls << " calls";
}

TEST(Workspace, DisarmedTraceProbesAllocateNothing)
{
    // The observability contract, measured directly: a disarmed span
    // or instant probe is one relaxed atomic load — no allocation at
    // any rate of probing.
    ASSERT_FALSE(Tracer::instance().armed());
    const std::uint64_t allocs_before =
        g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 10000; i++) {
        TraceSpan span("probe", "test");
        span.arg("i", static_cast<double>(i));
        Tracer::instance().instant("probe.instant", "test",
                                   {{"i", static_cast<double>(i)}});
    }
    const std::uint64_t allocs_after =
        g_heap_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(allocs_after - allocs_before, 0u)
        << "disarmed trace probes touched the heap";
}

TEST(Workspace, TracerAddsZeroAllocationsToSolveHotPath)
{
    // The instrumented solver (solve.ivp / solve.trial spans) must
    // allocate exactly as much per solve with the tracer armed at
    // steady state as disarmed — i.e. tracing adds nothing on top of
    // the solver's own (pool-hit, shape-metadata) footprint.
    ASSERT_FALSE(Tracer::instance().armed());

    Rng rng(21);
    const Tensor y0 = Tensor::randn(Shape{4, 16, 16}, rng, 0.5f);
    DecayOde f;
    FixedFactorController ctrl;
    IvpOptions opts;
    opts.tolerance = 1e-4;
    opts.recordCheckpoints = false;
    IvpWorkspace solver_ws;

    const auto solveOnce = [&] {
        solveIvp(f, y0, 0.0, 1.0, ButcherTableau::rk23(), ctrl, opts,
                 nullptr, &solver_ws);
    };
    const auto allocsPerSolve = [&] {
        const std::uint64_t before =
            g_heap_allocs.load(std::memory_order_relaxed);
        solveOnce();
        return g_heap_allocs.load(std::memory_order_relaxed) - before;
    };

    // Warm-ups size the buffers; the working set is steady after two.
    solveOnce();
    solveOnce();

    auto &pool = Workspace::local();
    pool.resetStats();
    const std::uint64_t disarmed_allocs = allocsPerSolve();
    EXPECT_EQ(pool.stats().misses, 0u);
    // Disarmed steady state is itself stable solve-to-solve.
    EXPECT_EQ(allocsPerSolve(), disarmed_allocs);

    // Armed: the first traced solve registers this thread's ring (a
    // one-time allocation); every solve after that must match the
    // disarmed footprint exactly.
    Tracer::instance().arm(1 << 10);
    solveOnce(); // ring registration happens here
    const std::uint64_t armed_allocs = allocsPerSolve();
    Tracer::instance().disarm();
    EXPECT_EQ(armed_allocs, disarmed_allocs)
        << "armed steady-state tracing allocated on the solve hot path";
    EXPECT_FALSE(Tracer::instance().snapshot().empty());
    Tracer::instance().arm(1); // flush this test's events
    Tracer::instance().disarm();
}

TEST(Workspace, Fp16OdeQuantizesWithoutCopyAllocations)
{
    Rng rng(9);
    const Tensor h = Tensor::randn(Shape{4, 16, 16}, rng, 0.5f);
    DecayOde inner;
    Fp16Ode fp16(inner);

    Tensor out;
    fp16.evalInto(0.0, h, out); // warm-up sizes the scratch state
    auto &pool = Workspace::local();
    pool.resetStats();
    for (int i = 0; i < 4; i++)
        fp16.evalInto(0.1 * i, h, out);
    EXPECT_EQ(pool.stats().misses, 0u);

    // The wrapper must round both the state it feeds inner and the
    // derivative it returns: out is f applied to quantized h, quantized.
    Tensor h16 = h;
    h16.quantizeFp16();
    Tensor expect = inner.eval(0.0, h16);
    expect.quantizeFp16();
    fp16.evalInto(0.0, h, out);
    EXPECT_TRUE(Tensor::allClose(out, expect, 0.0, 0.0));
}

} // namespace
} // namespace enode
