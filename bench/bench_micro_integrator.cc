/**
 * @file
 * Microbenchmarks of the RK stepper, adaptive IVP driver and the ACA
 * backward pass on MLP embedded nets.
 *
 * Besides the google-benchmark console output, the binary measures the
 * solver's steady-state heap-allocation rate (workspace-pool misses per
 * accepted RK step — zero after warm-up) and merges the numbers into
 * BENCH_kernels.json next to the convolution entries, together with the
 * solo and the batch-of-1 batched adaptive solve (timed interleaved),
 * the per-sample cost of one batched MLP f evaluation at batch 1 and 4
 * (what coalescing requests buys) beside one solo f evaluation, and a
 * per-SIMD-backend sweep of the stepper's element kernels (WRMS norm,
 * axpy, FP16 quantization) and the MLP f's kernels (tanh, Linear matvec
 * from column panels), each with its speedup vs the forced scalar
 * backend.
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
#include "ode/batched_ivp.h"
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

    const bench::NsPerOp step_ns = bench::timeNsPerOp([&] {
        stepper.stepInto(ode, 0.0, f.x0, 0.1, nullptr, step_result);
    });
    const double step_miss = bench::allocMissesPerOp([&] {
        stepper.stepInto(ode, 0.0, f.x0, 0.1, nullptr, step_result);
    });

    // The batched driver at batch 1 on the same fixture, options and
    // controller computes the same numbers as the solo one, and both
    // evaluate f through the same adapter on the layers' batched bodies,
    // so the gap between the two entries is the drivers' own
    // bookkeeping. Their loops are interleaved, so a drift in the host
    // reaches both alike.
    const std::vector<const Tensor *> y0 = {&f.x0};
    FixedFactorController batched_ctrl;
    const std::vector<StepController *> batched_ctrls = {&batched_ctrl};
    BatchedIvpWorkspace batched_ws;
    const auto solveBatched = [&] {
        benchmark::DoNotOptimize(
            solveIvpBatched(ode, y0, 0.0, 1.0,
                            ButcherTableau::rk23(), batched_ctrls, opts,
                            &batched_ws));
    };
    const std::vector<bench::NsPerOp> solve_ns =
        bench::timeNsPerOpInterleaved(
            {[&] {
                 benchmark::DoNotOptimize(
                     solveIvp(ode, f.x0, 0.0, 1.0, ButcherTableau::rk23(),
                              ctrl, opts, nullptr, &ws));
             },
             solveBatched});
    const double batched_miss = bench::allocMissesPerOp(solveBatched);

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
    step_entry.ns = step_ns;
    step_entry.allocMissesPerOp = step_miss;

    bench::KernelBenchEntry solve_entry;
    solve_entry.name = "solve_ivp_serving_mlp8";
    solve_entry.ns = solve_ns[0];
    solve_entry.allocMissesPerOp = miss_per_step;

    // Pool misses per whole solve.
    bench::KernelBenchEntry batched_entry;
    batched_entry.name = "solve_ivp_batched1_mlp8";
    batched_entry.ns = solve_ns[1];
    batched_entry.allocMissesPerOp = batched_miss;

    bench::writeKernelReport({step_entry, solve_entry, batched_entry});
    std::printf("BENCH_kernels.json: %.3f heap allocations per accepted "
                "RK step after warm-up (%llu steps sampled)\n",
                miss_per_step, static_cast<unsigned long long>(accepted));
}

/**
 * Per-sample cost of one shared MLP f evaluation
 * (EmbeddedNet::evalBatched) at the perfbench models' shape — dim 16,
 * hidden 64, f depth 2 — over a stack of 1 and of 4 states, and of one
 * solo evaluation through the f adapter (EmbeddedNetOde::evalInto on
 * one state, what every solo solve runs). A batched evaluation must not
 * cost more per sample than a batch of one, nor a solo one more than a
 * batch of one; bench/check_bench.py gates both against batch 1, so the
 * three are timed in interleaved loops.
 */
void
emitBatchedFevalReport()
{
    constexpr std::size_t kDim = 16;
    const std::size_t batches[] = {1, 4};
    Rng rng(11);
    auto net = EmbeddedNet::makeMlp(kDim, /*hidden=*/64, /*depth=*/2, rng);
    std::vector<Tensor> hs, outs(std::size(batches));
    std::vector<std::vector<double>> ts;
    for (const std::size_t n : batches) {
        hs.push_back(Tensor::randn(Shape{n, kDim}, rng, 0.5f));
        ts.emplace_back(n, 0.5);
    }
    std::vector<std::function<void()>> evals;
    for (std::size_t i = 0; i < std::size(batches); i++)
        evals.push_back([&, i] {
            net->evalBatched(ts[i], hs[i], outs[i]);
            benchmark::DoNotOptimize(outs[i].data());
            benchmark::ClobberMemory();
        });
    EmbeddedNetOde ode(*net);
    const Tensor h = hs[0].sample(0);
    Tensor solo_out;
    evals.push_back([&] {
        ode.evalInto(0.5, h, solo_out);
        benchmark::DoNotOptimize(solo_out.data());
        benchmark::ClobberMemory();
    });
    const std::vector<bench::NsPerOp> ns =
        bench::timeNsPerOpInterleaved(evals);

    std::vector<bench::KernelBenchEntry> entries;
    for (std::size_t i = 0; i < ns.size(); i++) {
        const bool solo = i == std::size(batches);
        const double per_sample =
            solo ? 1.0 : 1.0 / static_cast<double>(batches[i]);
        bench::KernelBenchEntry e;
        e.name = solo ? std::string("mlp_feval_solo_16x64x2")
                      : "mlp_feval_batch" + std::to_string(batches[i]) +
                            "_16x64x2";
        e.ns = {ns[i].median * per_sample, ns[i].min * per_sample,
                ns[i].max * per_sample};
        std::printf("  %-32s %10.0f ns per sample\n", e.name.c_str(),
                    e.ns.median);
        entries.push_back(std::move(e));
    }
    bench::writeKernelReport(entries);
}

/**
 * Per-SIMD-backend sweep of the stepper's element kernels — the WRMS
 * error norm (Tensor::l2Norm), the stage-combination axpy, and the FP16
 * datapath quantization, each on a 4096-element state — and of the MLP
 * f's kernels at the shapes of the perfbench models: tanh over 64
 * activations, and the 64x17 input and 64x64 hidden Linear matvecs with
 * bias from column panels (matvecPanels, what both Linear forwards
 * run). Every compiled and supported backend is forced in turn; speedup
 * is against the forced scalar backend (always first in
 * availableSimdBackends()).
 */
void
emitBackendSweep()
{
    constexpr std::size_t kN = 4096;
    constexpr std::size_t kHidden = 64;
    constexpr std::size_t kIn = 17; // state dim 16 plus the time feature
    Rng rng(7);
    Tensor y = Tensor::randn(Shape{kN}, rng, 1.0f);
    Tensor x = Tensor::randn(Shape{kN}, rng, 1.0f);
    Tensor q = Tensor::randn(Shape{kN}, rng, 1.0f);
    Tensor act = Tensor::randn(Shape{kHidden}, rng, 1.0f);
    Tensor w = Tensor::randn(Shape{kHidden, kHidden}, rng, 0.125f);
    Tensor wIn = Tensor::randn(Shape{kHidden, kIn}, rng, 0.25f);
    std::vector<float> panels(matvecPanelsSize(kHidden, kHidden));
    packMatvecPanels(panels.data(), w.data(), kHidden, kHidden);
    std::vector<float> panelsIn(matvecPanelsSize(kHidden, kIn));
    packMatvecPanels(panelsIn.data(), wIn.data(), kHidden, kIn);
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
        {"linear_matvec_panels", "64x64", 2.0 * kHidden * kHidden,
         [&] {
             simdOps().matvecPanels(out.data(), panels.data(), bias.data(),
                                    act.data(), kHidden, kHidden);
             benchmark::DoNotOptimize(out.data());
             benchmark::ClobberMemory();
         }},
        {"linear_matvec_panels", "64x17", 2.0 * kHidden * kIn,
         [&] {
             simdOps().matvecPanels(out.data(), panelsIn.data(), bias.data(),
                                    act.data(), kHidden, kIn);
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
            const bench::NsPerOp ns = bench::timeNsPerOp(k.fn);
            if (backend == SimdBackend::Scalar)
                scalar_ns = ns.median;
            bench::KernelBenchEntry e;
            e.name = k.name;
            e.name.append("_").append(simdBackendName(backend));
            e.name.append("_").append(k.size);
            e.ns = ns;
            e.gflops = k.flops > 0.0 ? k.flops / ns.median : 0.0;
            e.speedupVsScalar =
                scalar_ns > 0.0 ? scalar_ns / ns.median : 0.0;
            std::printf("  %-32s %10.0f ns  %6.2fx vs scalar\n",
                        e.name.c_str(), ns.median, e.speedupVsScalar);
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
    emitBatchedFevalReport();
    emitBackendSweep();
    return 0;
}
