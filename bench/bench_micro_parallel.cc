/**
 * @file
 * Intra-op parallelism sweep of the conv kernels and one full adaptive
 * solve: the same workloads as bench_micro_conv, run at 1/2/4/8-way
 * splits on a persistent TaskPool (the software core ring).
 *
 * Emits BENCH_parallel.json with ns/op, speedup vs the 1-thread run,
 * parallel efficiency (speedup / threads) and steady-state heap
 * allocations per op summed over the caller *and* every pool worker —
 * the zero-allocation property must survive tiling, so the miss count
 * must stay 0 at every width once the per-worker arenas are warm.
 *
 * Results are bitwise identical across the sweep by construction
 * (tests/test_conv_kernels.cc proves it); this bench only measures
 * time. Absolute speedups depend on the machine's core count — on a
 * single-core runner every width collapses to ~1.0x.
 */

#include <cstdio>
#include <mutex>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "nn/conv2d.h"
#include "ode/step_control.h"
#include "tensor/workspace.h"

using namespace enode;

namespace {

/** The paper's tile shape: 8 in x 8 out channels, 3x3 taps. */
struct ParallelFixture
{
    ParallelFixture()
    {
        Rng rng(1);
        x = Tensor::randn(Shape{8, 32, 32}, rng, 1.0f);
        grad = Tensor::randn(Shape{8, 32, 32}, rng, 1.0f);
        weight = Tensor::randn(Shape{8, 8, 3, 3}, rng, 0.5f);
        bias = Tensor::randn(Shape{8}, rng, 0.5f);
    }
    Tensor x, grad, weight, bias;
};

constexpr double kConvFlops = 2.0 * 8 * 8 * 3 * 3 * 32 * 32;
const std::size_t kWidths[] = {1, 2, 4, 8};

/**
 * Steady-state heap allocations per call of fn() summed over the
 * calling thread and every pool worker. A tiled kernel acquires
 * scratch on whichever worker runs the tile, so misses on *any* arena
 * break the zero-allocation property.
 */
template <typename F>
double
pooledAllocMissesPerOp(TaskPool &pool, F &&fn, int iters = 8)
{
    for (int i = 0; i < 3; i++)
        fn(); // warm-up: size buffers, fill every touched arena
    std::mutex mu;
    std::uint64_t misses = 0;
    Workspace::local().resetStats();
    pool.runOnWorkers([] { Workspace::local().resetStats(); });
    for (int i = 0; i < iters; i++)
        fn();
    misses = Workspace::local().stats().misses;
    pool.runOnWorkers([&] {
        std::lock_guard<std::mutex> lock(mu);
        misses += Workspace::local().stats().misses;
    });
    return static_cast<double>(misses) / iters;
}

/** One kernel's width sweep: entries named <base>_t<width>. */
template <typename F>
void
sweepKernel(const char *base, double flops, F &&fn,
            std::vector<bench::KernelBenchEntry> &entries)
{
    double t1_ns = 0.0;
    for (const std::size_t t : kWidths) {
        TaskPool pool(t - 1);
        IntraOpScope scope(&pool, t);

        bench::KernelBenchEntry e;
        e.name = std::string(base) + "_t" + std::to_string(t);
        e.ns = bench::timeNsPerOp(fn);
        if (flops > 0.0)
            e.gflops = flops / e.ns.median;
        e.allocMissesPerOp = pooledAllocMissesPerOp(pool, fn);
        if (t == 1)
            t1_ns = e.ns.median;
        e.speedupVsRef = t1_ns > 0.0 ? t1_ns / e.ns.median : 0.0;
        e.parallelEfficiency =
            e.speedupVsRef / static_cast<double>(t);
        entries.push_back(e);
        std::printf("%-32s %10.0f ns/op  %5.2fx  eff %4.2f  miss/op %g\n",
                    e.name.c_str(), e.ns.median, e.speedupVsRef,
                    e.parallelEfficiency, e.allocMissesPerOp);
    }
}

void
runSweep()
{
    ParallelFixture f;
    Tensor out, gx, gw;
    std::vector<bench::KernelBenchEntry> entries;

    sweepKernel(
        "par_conv_forward_8c8m32x32k3", kConvFlops,
        [&] { convForwardInto(out, f.x, f.weight, f.bias); }, entries);
    sweepKernel(
        "par_conv_backward_data_8c8m32x32k3", kConvFlops,
        [&] { convBackwardDataInto(gx, f.grad, f.weight); }, entries);
    sweepKernel(
        "par_conv_backward_weights_8c8m32x32k3", kConvFlops,
        [&] { convBackwardWeightsInto(gw, f.x, f.grad, 3); }, entries);

    // One full adaptive solve: a 1-layer conv NODE, RK23 with the
    // fixed-factor stepsize search — every f evaluation runs the tiled
    // forward kernel, so the whole-solve speedup shows how much of the
    // solver is covered by intra-op tiling (Amdahl check).
    {
        Rng rng(7);
        auto model = NodeModel::makeConv(/*num_layers=*/1, /*channels=*/8,
                                         /*f_depth=*/2, rng);
        const Tensor x0 = Tensor::randn(Shape{8, 16, 16}, rng, 1.0f);
        FixedFactorController controller;
        IvpOptions opts;
        opts.recordCheckpoints = false;
        const auto solve = [&] {
            auto fwd = model->forward(x0, ButcherTableau::rk23(),
                                      controller, opts);
            benchmark::DoNotOptimize(fwd.output.data());
        };
        sweepKernel("par_node_solve_1l8c16x16", 0.0, solve, entries);
    }

    bench::writeKernelReport(entries, "BENCH_parallel.json");
    std::printf("wrote BENCH_parallel.json (%zu entries)\n",
                entries.size());
}

} // namespace

int
main()
{
    runSweep();
    return 0;
}
