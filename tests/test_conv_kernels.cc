/**
 * @file
 * Exhaustive equivalence of the blocked/vectorized convolution kernels
 * against the retained reference kernels in enode::reference, across
 * odd/even map shapes, degenerate maps narrower than the kernel, and
 * 1x1/3x3/5x5/7x7/9x9 taps. All kernels are stride-1
 * same-(zero)-padding by contract; the shape sweep covers every
 * padding regime that contract produces (interior-only maps,
 * edge-dominated maps, maps narrower than the kernel).
 *
 * Where the fast kernel preserves the reference accumulation order
 * (single-tap 1x1 forward/adjoint) the match is required to be
 * bitwise; everywhere else a <= 1e-5 relative tolerance applies.
 */

#include <atomic>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "common/task_pool.h"
#include "nn/conv2d.h"
#include "tensor/workspace.h"

namespace enode {
namespace {

struct ConvCase
{
    std::size_t C, M, H, W, K;
};

std::vector<ConvCase>
sweepCases()
{
    std::vector<ConvCase> cases;
    const std::size_t channels[] = {1, 2, 3, 5, 8, 9};
    const std::pair<std::size_t, std::size_t> maps[] = {
        {1, 1}, {2, 3}, {4, 7}, {5, 5}, {7, 4}, {12, 12}};
    const std::size_t kernels[] = {1, 3, 5};
    for (auto c : channels)
        for (auto m : channels)
            for (auto [h, w] : maps)
                for (auto k : kernels)
                    cases.push_back({c, m, h, w, k});
    // Large taps: the generic-K direct forward and adjoint, the
    // >kMaxFusedK reference weight-grad, and maps narrower than the
    // kernel.
    cases.push_back({3, 4, 9, 9, 7});
    cases.push_back({2, 3, 5, 5, 9});
    cases.push_back({4, 4, 3, 2, 5});
    cases.push_back({8, 8, 2, 2, 7});
    return cases;
}

/**
 * |a - b| <= atol + rtol * |b| elementwise, with context on failure.
 * Inputs are unit-scale, so atol = 1e-5 is 1e-5 relative to the data
 * magnitude; the reordered accumulation (fused taps, channel tiles)
 * legitimately differs from the reference by a few float ulps of the
 * partial sums, which exceeds the final value's ulp where taps cancel.
 */
void
expectClose(const Tensor &fast, const Tensor &ref, const ConvCase &cs,
            const char *kernel_name)
{
    ASSERT_EQ(fast.shape().dims(), ref.shape().dims());
    EXPECT_TRUE(Tensor::allClose(fast, ref, 1e-5, 1e-5))
        << kernel_name << " C=" << cs.C << " M=" << cs.M << " H=" << cs.H
        << " W=" << cs.W << " K=" << cs.K
        << " maxAbsDiff=" << Tensor::maxAbsDiff(fast, ref);
}

TEST(ConvKernelEquivalence, ForwardMatchesReferenceAcrossShapes)
{
    Rng rng(42);
    for (const auto &cs : sweepCases()) {
        const Tensor x = Tensor::randn(Shape{cs.C, cs.H, cs.W}, rng, 1.0f);
        const Tensor w =
            Tensor::randn(Shape{cs.M, cs.C, cs.K, cs.K}, rng, 0.5f);
        const Tensor b = Tensor::randn(Shape{cs.M}, rng, 0.5f);
        expectClose(convForward(x, w, b), reference::convForward(x, w, b),
                    cs, "forward");
        // Bias-less variant exercises the zero-init path.
        expectClose(convForward(x, w, Tensor()),
                    reference::convForward(x, w, Tensor()), cs,
                    "forward-nobias");
    }
}

TEST(ConvKernelEquivalence, BackwardDataMatchesReferenceAcrossShapes)
{
    Rng rng(43);
    for (const auto &cs : sweepCases()) {
        const Tensor g = Tensor::randn(Shape{cs.M, cs.H, cs.W}, rng, 1.0f);
        const Tensor w =
            Tensor::randn(Shape{cs.M, cs.C, cs.K, cs.K}, rng, 0.5f);
        expectClose(convBackwardData(g, w),
                    reference::convBackwardData(g, w), cs, "backward-data");
    }
}

TEST(ConvKernelEquivalence, BackwardWeightsMatchesReferenceAcrossShapes)
{
    Rng rng(44);
    for (const auto &cs : sweepCases()) {
        const Tensor x = Tensor::randn(Shape{cs.C, cs.H, cs.W}, rng, 1.0f);
        const Tensor g = Tensor::randn(Shape{cs.M, cs.H, cs.W}, rng, 1.0f);
        expectClose(convBackwardWeights(x, g, cs.K),
                    reference::convBackwardWeights(x, g, cs.K), cs,
                    "backward-weights");
    }
}

TEST(ConvKernelEquivalence, BothForwardPathsMatchReference)
{
    // The direct core is the only forward path: it serves every odd K
    // (the K = 7 and 9 cases) and maps narrower than the kernel. One
    // output tensor is reused across the whole sweep, so every shape
    // change goes through convForwardInto's resize.
    Rng rng(45);
    Tensor out;
    for (const auto &cs : sweepCases()) {
        const Tensor x = Tensor::randn(Shape{cs.C, cs.H, cs.W}, rng, 1.0f);
        const Tensor w =
            Tensor::randn(Shape{cs.M, cs.C, cs.K, cs.K}, rng, 0.5f);
        const Tensor b = Tensor::randn(Shape{cs.M}, rng, 0.5f);
        convForwardInto(out, x, w, b);
        expectClose(out, reference::convForward(x, w, b), cs,
                    "forward-into");
    }
}

TEST(ConvKernelEquivalence, SingleTapKernelsAreBitwiseIdentical)
{
    // 1x1 kernels preserve the reference accumulation order (one tap,
    // channels accumulated in the same sequence), so the fast forward
    // and adjoint must match bit for bit.
    Rng rng(46);
    for (std::size_t c : {1u, 3u, 8u}) {
        for (std::size_t m : {1u, 5u, 8u}) {
            const Tensor x = Tensor::randn(Shape{c, 6, 11}, rng, 1.0f);
            const Tensor g = Tensor::randn(Shape{m, 6, 11}, rng, 1.0f);
            const Tensor w = Tensor::randn(Shape{m, c, 1, 1}, rng, 0.5f);
            const Tensor b = Tensor::randn(Shape{m}, rng, 0.5f);

            const Tensor fwd = convForward(x, w, b);
            const Tensor fwd_ref = reference::convForward(x, w, b);
            ASSERT_EQ(fwd.numel(), fwd_ref.numel());
            for (std::size_t i = 0; i < fwd.numel(); i++)
                ASSERT_EQ(fwd.at(i), fwd_ref.at(i)) << "forward elem " << i;

            const Tensor bwd = convBackwardData(g, w);
            const Tensor bwd_ref = reference::convBackwardData(g, w);
            for (std::size_t i = 0; i < bwd.numel(); i++)
                ASSERT_EQ(bwd.at(i), bwd_ref.at(i)) << "adjoint elem " << i;
        }
    }
}

TEST(ConvKernelEquivalence, ZeroWeightsSkipMatchesReference)
{
    // Sparse kernels exercise the zero-tap skip branches.
    Rng rng(47);
    Tensor x = Tensor::randn(Shape{4, 9, 9}, rng, 1.0f);
    Tensor w(Shape{4, 4, 3, 3});
    // Only the center taps of half the (m, c) pairs are nonzero.
    for (std::size_t m = 0; m < 4; m++)
        for (std::size_t c = m % 2; c < 4; c += 2)
            w.at((((m * 4) + c) * 3 + 1) * 3 + 1) = 1.5f;
    const ConvCase cs{4, 4, 9, 9, 3};
    expectClose(convForward(x, w, Tensor()),
                reference::convForward(x, w, Tensor()), cs, "sparse-fwd");
    expectClose(convBackwardData(x, w), reference::convBackwardData(x, w),
                cs, "sparse-bwd");
}

TEST(ConvKernelEquivalence, IntoVariantsReuseStorageWithoutAllocating)
{
    Rng rng(48);
    const Tensor x = Tensor::randn(Shape{8, 16, 16}, rng, 1.0f);
    const Tensor w = Tensor::randn(Shape{8, 8, 3, 3}, rng, 0.5f);
    const Tensor b = Tensor::randn(Shape{8}, rng, 0.5f);

    Tensor out, gx, gw;
    // Two warm-up rounds: the first sizes the outputs (gw's buffer can
    // claim a pooled size-class a scratch released moments earlier),
    // the second repopulates every scratch bucket, after which the
    // working set is closed.
    for (int i = 0; i < 2; i++) {
        convForwardInto(out, x, w, b);
        convBackwardDataInto(gx, out, w);
        convBackwardWeightsInto(gw, x, out, 3);
    }
    const Tensor first = out;

    // Steady state: repeated calls into the same outputs must be
    // pool-hit only (a miss is a real heap allocation).
    auto &ws = Workspace::local();
    ws.resetStats();
    for (int i = 0; i < 3; i++) {
        convForwardInto(out, x, w, b);
        convBackwardDataInto(gx, out, w);
        convBackwardWeightsInto(gw, x, out, 3);
    }
    EXPECT_EQ(ws.stats().misses, 0u);
    for (std::size_t i = 0; i < out.numel(); i++)
        ASSERT_EQ(out.at(i), first.at(i));
}

/** a == b bit for bit, with shape context on failure. */
void
expectBitwise(const Tensor &par, const Tensor &ser, const ConvCase &cs,
              const char *kernel_name)
{
    ASSERT_EQ(par.shape().dims(), ser.shape().dims());
    for (std::size_t i = 0; i < par.numel(); i++)
        ASSERT_EQ(par.at(i), ser.at(i))
            << kernel_name << " elem " << i << " C=" << cs.C
            << " M=" << cs.M << " H=" << cs.H << " W=" << cs.W
            << " K=" << cs.K;
}

TEST(ConvKernelParallel, AllKernelsBitwiseEqualSerialAcrossShapes)
{
    // The tiled kernels keep each output element's accumulation order
    // inside one work item, so splitting across the pool must not move
    // a single bit relative to the serial run — on every shape of the
    // sweep, for all three kernels.
    Rng rng(49);
    TaskPool pool(3);
    for (const auto &cs : sweepCases()) {
        const Tensor x = Tensor::randn(Shape{cs.C, cs.H, cs.W}, rng, 1.0f);
        const Tensor g = Tensor::randn(Shape{cs.M, cs.H, cs.W}, rng, 1.0f);
        const Tensor w =
            Tensor::randn(Shape{cs.M, cs.C, cs.K, cs.K}, rng, 0.5f);
        const Tensor b = Tensor::randn(Shape{cs.M}, rng, 0.5f);

        Tensor ser_fwd, ser_gx, ser_gw;
        convForwardInto(ser_fwd, x, w, b);
        convBackwardDataInto(ser_gx, g, w);
        convBackwardWeightsInto(ser_gw, x, g, cs.K);

        IntraOpScope scope(&pool, 4);
        Tensor out;
        convForwardInto(out, x, w, b);
        expectBitwise(out, ser_fwd, cs, "parallel-forward");
        convBackwardDataInto(out, g, w);
        expectBitwise(out, ser_gx, cs, "parallel-backward-data");
        convBackwardWeightsInto(out, x, g, cs.K);
        expectBitwise(out, ser_gw, cs, "parallel-backward-weights");
    }
}

TEST(ConvKernelParallel, SameBitsAtEveryWidth)
{
    // Width 1 vs 2 vs 4 vs 8 (more ways than there are map rows, too):
    // identical outputs, not merely close.
    Rng rng(50);
    const ConvCase cs{8, 8, 12, 12, 3};
    const Tensor x = Tensor::randn(Shape{cs.C, cs.H, cs.W}, rng, 1.0f);
    const Tensor w = Tensor::randn(Shape{cs.M, cs.C, cs.K, cs.K}, rng, 0.5f);
    const Tensor b = Tensor::randn(Shape{cs.M}, rng, 0.5f);

    Tensor baseline;
    convForwardInto(baseline, x, w, b);
    for (std::size_t width : {1u, 2u, 4u, 8u}) {
        TaskPool pool(width - 1);
        IntraOpScope scope(&pool, width);
        Tensor out;
        convForwardInto(out, x, w, b);
        expectBitwise(out, baseline, cs, "width-sweep");
    }
}

TEST(ConvKernelParallel, ZeroAllocAtSteadyStateOnEveryArena)
{
    // Chunk scratch is acquired on the executing worker; after the
    // rotating assignment has warmed every worker's arena, repeated
    // kernel calls must not allocate on *any* thread.
    Rng rng(51);
    const Tensor x = Tensor::randn(Shape{8, 16, 16}, rng, 1.0f);
    const Tensor w = Tensor::randn(Shape{8, 8, 3, 3}, rng, 0.5f);
    const Tensor b = Tensor::randn(Shape{8}, rng, 0.5f);

    TaskPool pool(3);
    IntraOpScope scope(&pool, 4);
    Tensor out, gx, gw;
    for (int i = 0; i < 16; i++) { // warm-up covers all workers
        convForwardInto(out, x, w, b);
        convBackwardDataInto(gx, out, w);
        convBackwardWeightsInto(gw, x, out, 3);
    }

    Workspace::local().resetStats();
    pool.runOnWorkers([] { Workspace::local().resetStats(); });
    for (int i = 0; i < 8; i++) {
        convForwardInto(out, x, w, b);
        convBackwardDataInto(gx, out, w);
        convBackwardWeightsInto(gw, x, out, 3);
    }
    std::atomic<std::uint64_t> misses{Workspace::local().stats().misses};
    pool.runOnWorkers([&] { misses += Workspace::local().stats().misses; });
    EXPECT_EQ(misses.load(), 0u);
}

TEST(ConvKernelSimdBackends, AllKernelsBitwiseEqualScalarOnEveryBackend)
{
    // The conv tap kernels (axpy/rowTaps) and the weight-grad reduction
    // (fixed-16-lane accumDot16) are bitwise identical across SIMD
    // backends by contract — per-op rounding, no FMA, fixed lane count.
    // Force each compiled-and-supported vector backend over the full
    // shape sweep and demand bit equality with the scalar backend's
    // output for all three kernels.
    Rng rng(52);
    for (const auto &cs : sweepCases()) {
        const Tensor x = Tensor::randn(Shape{cs.C, cs.H, cs.W}, rng, 1.0f);
        const Tensor g = Tensor::randn(Shape{cs.M, cs.H, cs.W}, rng, 1.0f);
        const Tensor w =
            Tensor::randn(Shape{cs.M, cs.C, cs.K, cs.K}, rng, 0.5f);
        const Tensor b = Tensor::randn(Shape{cs.M}, rng, 0.5f);

        Tensor sc_fwd, sc_gx, sc_gw;
        {
            ScopedSimdBackend force(SimdBackend::Scalar);
            ASSERT_TRUE(force.applied());
            convForwardInto(sc_fwd, x, w, b);
            convBackwardDataInto(sc_gx, g, w);
            convBackwardWeightsInto(sc_gw, x, g, cs.K);
        }

        for (SimdBackend backend : availableSimdBackends()) {
            if (backend == SimdBackend::Scalar)
                continue;
            ScopedSimdBackend force(backend);
            ASSERT_TRUE(force.applied());
            const char *bn = simdBackendName(backend);
            Tensor out;
            convForwardInto(out, x, w, b);
            expectBitwise(out, sc_fwd, cs, bn);
            convBackwardDataInto(out, g, w);
            expectBitwise(out, sc_gx, cs, bn);
            convBackwardWeightsInto(out, x, g, cs.K);
            expectBitwise(out, sc_gw, cs, bn);
        }
    }
}

} // namespace
} // namespace enode
