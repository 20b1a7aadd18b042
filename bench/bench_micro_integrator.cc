/**
 * @file
 * Microbenchmarks of the RK stepper, adaptive IVP driver and the ACA
 * backward pass on MLP embedded nets.
 *
 * Besides the google-benchmark console output, the binary measures the
 * solver's steady-state heap-allocation rate (workspace-pool misses per
 * accepted RK step — zero after warm-up) and merges the numbers into
 * BENCH_kernels.json next to the convolution entries, together with a
 * per-SIMD-backend sweep of the stepper's element kernels (WRMS norm,
 * axpy, FP16 quantization) and the MLP f's kernels (tanh, Linear
 * matvec), each with its speedup vs the forced scalar backend.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/aca_trainer.h"
#include "core/node_model.h"
#include "core/slope_adaptive.h"
#include "nn/loss.h"
#include "ode/ivp.h"
#include "tensor/workspace.h"

using namespace enode;

namespace {

struct NodeFixture
{
    NodeFixture() : rng(3)
    {
        model = NodeModel::makeMlp(2, 8, 32, 1, rng);
        x0 = Tensor::randn(Shape{8}, rng, 0.5f);
        target = Tensor::randn(Shape{8}, rng, 0.5f);
        opts.tolerance = 1e-4;
        opts.initialDt = 0.1;
    }
    Rng rng;
    std::unique_ptr<NodeModel> model;
    Tensor x0, target;
    IvpOptions opts;
};

NodeFixture &
fixture()
{
    static NodeFixture f;
    return f;
}

void
BM_RkStep(benchmark::State &state)
{
    auto &f = fixture();
    EmbeddedNetOde ode(f.model->net(0));
    RkStepper stepper(ButcherTableau::rk23());
    for (auto _ : state)
        benchmark::DoNotOptimize(stepper.step(ode, 0.0, f.x0, 0.1));
}
BENCHMARK(BM_RkStep);

void
BM_ForwardConventional(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        FixedFactorController ctrl;
        benchmark::DoNotOptimize(f.model->forward(
            f.x0, ButcherTableau::rk23(), ctrl, f.opts));
    }
}
BENCHMARK(BM_ForwardConventional);

void
BM_ForwardSlopeAdaptive(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        SlopeAdaptiveController ctrl;
        benchmark::DoNotOptimize(f.model->forward(
            f.x0, ButcherTableau::rk23(), ctrl, f.opts));
    }
}
BENCHMARK(BM_ForwardSlopeAdaptive);

void
BM_TrainingIteration(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        FixedFactorController ctrl;
        f.model->zeroGrad();
        benchmark::DoNotOptimize(
            regressionTrainStep(*f.model, f.x0, f.target,
                                ButcherTableau::rk23(), ctrl, f.opts));
    }
}
BENCHMARK(BM_TrainingIteration);

void
BM_RkStepInto(benchmark::State &state)
{
    // The allocation-free stepping entry point the adaptive driver uses:
    // stage tensors, next state, and error state live in the reused
    // StepResult.
    auto &f = fixture();
    EmbeddedNetOde ode(f.model->net(0));
    RkStepper stepper(ButcherTableau::rk23());
    StepResult result;
    for (auto _ : state) {
        stepper.stepInto(ode, 0.0, f.x0, 0.1, nullptr, result);
        benchmark::DoNotOptimize(result.yNext.data());
    }
}
BENCHMARK(BM_RkStepInto);

void
BM_SolveIvpServing(benchmark::State &state)
{
    // Inference-style solve: no checkpoint recording, solver workspace
    // reused across solves — the configuration the serving runtime runs.
    auto &f = fixture();
    EmbeddedNetOde ode(f.model->net(0));
    IvpOptions opts = f.opts;
    opts.recordCheckpoints = false;
    IvpWorkspace ws;
    FixedFactorController ctrl;
    for (auto _ : state)
        benchmark::DoNotOptimize(solveIvp(ode, f.x0, 0.0, 1.0,
                                          ButcherTableau::rk23(), ctrl,
                                          opts, nullptr, &ws));
}
BENCHMARK(BM_SolveIvpServing);

void
BM_IntegratorSweep(benchmark::State &state)
{
    // Cost per tableau (stages drive f evaluations per step).
    auto &f = fixture();
    const auto names = ButcherTableau::names();
    const auto &tab =
        ButcherTableau::byName(names[static_cast<std::size_t>(
            state.range(0))]);
    EmbeddedNetOde ode(f.model->net(0));
    RkStepper stepper(tab);
    for (auto _ : state)
        benchmark::DoNotOptimize(stepper.step(ode, 0.0, f.x0, 0.1));
    state.SetLabel(tab.name());
}
BENCHMARK(BM_IntegratorSweep)->DenseRange(0, 6);

/** Solver hot-path numbers emitted to BENCH_kernels.json. */
void
emitIntegratorReport()
{
    auto &f = fixture();
    EmbeddedNetOde ode(f.model->net(0));
    RkStepper stepper(ButcherTableau::rk23());
    StepResult step_result;
    IvpOptions opts = f.opts;
    opts.recordCheckpoints = false;
    IvpWorkspace ws;
    FixedFactorController ctrl;

    const double step_ns = bench::timeNsPerOp([&] {
        stepper.stepInto(ode, 0.0, f.x0, 0.1, nullptr, step_result);
    });
    const double step_miss = bench::allocMissesPerOp([&] {
        stepper.stepInto(ode, 0.0, f.x0, 0.1, nullptr, step_result);
    });

    const double solve_ns = bench::timeNsPerOp([&] {
        benchmark::DoNotOptimize(solveIvp(ode, f.x0, 0.0, 1.0,
                                          ButcherTableau::rk23(), ctrl,
                                          opts, nullptr, &ws));
    });

    // Heap allocations per *accepted* step at steady state — the
    // headline zero-allocation metric. Results are dropped immediately
    // (as the serving loop does), so every buffer recycles.
    for (int i = 0; i < 3; i++)
        solveIvp(ode, f.x0, 0.0, 1.0, ButcherTableau::rk23(), ctrl, opts,
                 nullptr, &ws);
    auto &pool = Workspace::local();
    pool.resetStats();
    std::uint64_t accepted = 0;
    for (int i = 0; i < 8; i++) {
        auto res = solveIvp(ode, f.x0, 0.0, 1.0, ButcherTableau::rk23(),
                            ctrl, opts, nullptr, &ws);
        accepted += res.stats.evalPoints;
    }
    const double miss_per_step =
        accepted ? static_cast<double>(pool.stats().misses) /
                       static_cast<double>(accepted)
                 : 0.0;

    bench::KernelBenchEntry step_entry;
    step_entry.name = "rk23_step_into_mlp8";
    step_entry.nsPerOp = step_ns;
    step_entry.allocMissesPerOp = step_miss;

    bench::KernelBenchEntry solve_entry;
    solve_entry.name = "solve_ivp_serving_mlp8";
    solve_entry.nsPerOp = solve_ns;
    solve_entry.allocMissesPerOp = miss_per_step;

    bench::writeKernelReport({step_entry, solve_entry});
    std::printf("BENCH_kernels.json: %.3f heap allocations per accepted "
                "RK step after warm-up (%llu steps sampled)\n",
                miss_per_step, static_cast<unsigned long long>(accepted));
}

/**
 * Per-SIMD-backend sweep of the stepper's element kernels — the WRMS
 * error norm (Tensor::l2Norm), the stage-combination axpy, and the FP16
 * datapath quantization, each on a 4096-element state — and of the MLP
 * f's kernels at the hidden width of the perfbench models: tanh over
 * 64 activations and one 64x64 Linear matvec with bias. Every compiled
 * and supported backend is forced in turn; speedup is against the
 * forced scalar backend (always first in availableSimdBackends()).
 */
void
emitBackendSweep()
{
    constexpr std::size_t kN = 4096;
    constexpr std::size_t kHidden = 64;
    Rng rng(7);
    Tensor y = Tensor::randn(Shape{kN}, rng, 1.0f);
    Tensor x = Tensor::randn(Shape{kN}, rng, 1.0f);
    Tensor q = Tensor::randn(Shape{kN}, rng, 1.0f);
    Tensor act = Tensor::randn(Shape{kHidden}, rng, 1.0f);
    Tensor w = Tensor::randn(Shape{kHidden, kHidden}, rng, 0.125f);
    Tensor bias = Tensor::randn(Shape{kHidden}, rng, 0.1f);
    Tensor out(Shape{kHidden});
    double sink = 0.0;

    struct Kernel
    {
        const char *name;
        const char *size; ///< entry-name suffix
        double flops; ///< per call; 0 when GFLOP/s is not meaningful
        std::function<void()> fn;
    };
    const Kernel kernels[] = {
        {"wrms_norm", "4096", 2.0 * kN,
         [&] {
             sink += y.l2Norm();
             benchmark::DoNotOptimize(sink);
         }},
        {"axpy", "4096", 2.0 * kN,
         [&] {
             y.axpy(1e-7f, x);
             benchmark::DoNotOptimize(y.data());
         }},
        {"fp16_quantize", "4096", 0.0,
         [&] {
             q.quantizeFp16();
             benchmark::DoNotOptimize(q.data());
         }},
        {"tanh", "64", 0.0,
         [&] {
             simdOps().tanh(out.data(), act.data(), kHidden);
             benchmark::DoNotOptimize(out.data());
             benchmark::ClobberMemory();
         }},
        {"linear_matvec", "64x64", 2.0 * kHidden * kHidden,
         [&] {
             simdOps().matvec(out.data(), w.data(), bias.data(), act.data(),
                              kHidden, kHidden);
             benchmark::DoNotOptimize(out.data());
             benchmark::ClobberMemory();
         }},
    };

    std::vector<bench::KernelBenchEntry> entries;
    for (const auto &k : kernels) {
        double scalar_ns = 0.0;
        for (SimdBackend backend : availableSimdBackends()) {
            ScopedSimdBackend force(backend);
            if (!force.applied())
                continue;
            const double ns = bench::timeNsPerOp(k.fn);
            if (backend == SimdBackend::Scalar)
                scalar_ns = ns;
            bench::KernelBenchEntry e;
            e.name = k.name;
            e.name.append("_").append(simdBackendName(backend));
            e.name.append("_").append(k.size);
            e.nsPerOp = ns;
            e.gflops = k.flops > 0.0 ? k.flops / ns : 0.0;
            e.speedupVsScalar = scalar_ns > 0.0 ? scalar_ns / ns : 0.0;
            std::printf("  %-32s %10.0f ns  %6.2fx vs scalar\n",
                        e.name.c_str(), ns, e.speedupVsScalar);
            entries.push_back(std::move(e));
        }
    }
    bench::writeKernelReport(entries);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    emitIntegratorReport();
    emitBackendSweep();
    return 0;
}
