/**
 * @file
 * Microbenchmarks of the convolution kernels in all three unified-core
 * modes: the retained scalar reference kernels, the blocked/vectorized
 * fast kernels, and the cycle-accurate PE-array model.
 *
 * Besides the google-benchmark console output, the binary writes the
 * reference-vs-fast pairing (ns/op, GFLOP/s, steady-state heap
 * allocations per op, speedup) to BENCH_kernels.json in the working
 * directory, merged with entries from the other micro-benches — plus a
 * per-SIMD-backend sweep of the three conv kernels (speedup vs the
 * forced scalar backend, the numbers the CI bench gate checks).
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/rng.h"
#include "common/simd.h"
#include "nn/conv2d.h"
#include "sim/pe_array.h"
#include "tensor/workspace.h"

using namespace enode;

namespace {

// The paper's tile shape: 8 in x 8 out channels (one 64-PE diagonal
// group), 3x3 taps.
struct ConvFixture
{
    ConvFixture()
    {
        Rng rng(1);
        x = Tensor::randn(Shape{8, 32, 32}, rng, 1.0f);
        grad = Tensor::randn(Shape{8, 32, 32}, rng, 1.0f);
        weight = Tensor::randn(Shape{8, 8, 3, 3}, rng, 0.5f);
        bias = Tensor::randn(Shape{8}, rng, 0.5f);
        array.loadWeights(weight);
    }
    Tensor x, grad, weight, bias;
    PeArray array;
};

ConvFixture &
fixture()
{
    static ConvFixture f;
    return f;
}

// 2 FLOPs (multiply + add) per tap per output element.
constexpr double kConvFlops = 2.0 * 8 * 8 * 3 * 3 * 32 * 32;

void
BM_ConvForward(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(convForward(f.x, f.weight, f.bias));
    state.SetItemsProcessed(state.iterations() * 8 * 8 * 32 * 32 * 9);
}
BENCHMARK(BM_ConvForward);

void
BM_ConvForwardReference(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            reference::convForward(f.x, f.weight, f.bias));
    state.SetItemsProcessed(state.iterations() * 8 * 8 * 32 * 32 * 9);
}
BENCHMARK(BM_ConvForwardReference);

void
BM_ConvBackwardData(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(convBackwardData(f.grad, f.weight));
    state.SetItemsProcessed(state.iterations() * 8 * 8 * 32 * 32 * 9);
}
BENCHMARK(BM_ConvBackwardData);

void
BM_ConvBackwardDataReference(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            reference::convBackwardData(f.grad, f.weight));
    state.SetItemsProcessed(state.iterations() * 8 * 8 * 32 * 32 * 9);
}
BENCHMARK(BM_ConvBackwardDataReference);

void
BM_ConvBackwardWeights(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(convBackwardWeights(f.x, f.grad, 3));
    state.SetItemsProcessed(state.iterations() * 8 * 8 * 32 * 32 * 9);
}
BENCHMARK(BM_ConvBackwardWeights);

void
BM_ConvBackwardWeightsReference(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            reference::convBackwardWeights(f.x, f.grad, 3));
    state.SetItemsProcessed(state.iterations() * 8 * 8 * 32 * 32 * 9);
}
BENCHMARK(BM_ConvBackwardWeightsReference);

void
BM_PeArrayForward(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(f.array.forwardConv(f.x, f.bias));
}
BENCHMARK(BM_PeArrayForward);

void
BM_PeArrayBackwardData(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(f.array.backwardDataConv(f.grad));
}
BENCHMARK(BM_PeArrayBackwardData);

/** Reference-vs-fast pairing emitted to BENCH_kernels.json. */
void
emitKernelReport()
{
    auto &f = fixture();
    Tensor out, gx, gw;

    auto entry = [](const char *name, bench::NsPerOp ns, double miss,
                    bench::NsPerOp ref_ns) {
        bench::KernelBenchEntry e;
        e.name = name;
        e.ns = ns;
        e.gflops = kConvFlops / ns.median;
        e.allocMissesPerOp = miss;
        e.speedupVsRef = ref_ns.median > 0.0 ? ref_ns.median / ns.median
                                             : 0.0;
        return e;
    };

    const bench::NsPerOp fwd_ref_ns = bench::timeNsPerOp(
        [&] { benchmark::DoNotOptimize(
                  reference::convForward(f.x, f.weight, f.bias)); });
    const bench::NsPerOp fwd_ns = bench::timeNsPerOp(
        [&] { convForwardInto(out, f.x, f.weight, f.bias); });
    const double fwd_miss = bench::allocMissesPerOp(
        [&] { convForwardInto(out, f.x, f.weight, f.bias); });

    const bench::NsPerOp bwd_ref_ns = bench::timeNsPerOp(
        [&] { benchmark::DoNotOptimize(
                  reference::convBackwardData(f.grad, f.weight)); });
    const bench::NsPerOp bwd_ns = bench::timeNsPerOp(
        [&] { convBackwardDataInto(gx, f.grad, f.weight); });
    const double bwd_miss = bench::allocMissesPerOp(
        [&] { convBackwardDataInto(gx, f.grad, f.weight); });

    const bench::NsPerOp wgt_ref_ns = bench::timeNsPerOp(
        [&] { benchmark::DoNotOptimize(
                  reference::convBackwardWeights(f.x, f.grad, 3)); });
    const bench::NsPerOp wgt_ns = bench::timeNsPerOp(
        [&] { convBackwardWeightsInto(gw, f.x, f.grad, 3); });
    const double wgt_miss = bench::allocMissesPerOp(
        [&] { convBackwardWeightsInto(gw, f.x, f.grad, 3); });

    bench::writeKernelReport({
        entry("conv_forward_ref_8c8m32x32k3", fwd_ref_ns, 0.0, {}),
        entry("conv_forward_8c8m32x32k3", fwd_ns, fwd_miss, fwd_ref_ns),
        entry("conv_backward_data_ref_8c8m32x32k3", bwd_ref_ns, 0.0, {}),
        entry("conv_backward_data_8c8m32x32k3", bwd_ns, bwd_miss,
              bwd_ref_ns),
        entry("conv_backward_weights_ref_8c8m32x32k3", wgt_ref_ns, 0.0,
              {}),
        entry("conv_backward_weights_8c8m32x32k3", wgt_ns, wgt_miss,
              wgt_ref_ns),
    });
    std::printf("BENCH_kernels.json: forward %.2fx, backward-data %.2fx, "
                "backward-weights %.2fx vs reference\n",
                fwd_ref_ns.median / fwd_ns.median,
                bwd_ref_ns.median / bwd_ns.median,
                wgt_ref_ns.median / wgt_ns.median);
}

/**
 * Per-SIMD-backend sweep of the three conv kernels: each compiled and
 * supported backend is forced in turn and timed on the same tile, with
 * speedup over the forced scalar backend recorded per entry. Scalar is
 * always first in availableSimdBackends(), so its time anchors the
 * ratios (and its own entries report 1.0).
 */
void
emitBackendSweep()
{
    auto &f = fixture();
    Tensor out, gx, gw;

    struct Kernel
    {
        const char *name;
        std::function<void()> fn;
    };
    const Kernel kernels[] = {
        {"conv_forward",
         [&] { convForwardInto(out, f.x, f.weight, f.bias); }},
        {"conv_backward_data",
         [&] { convBackwardDataInto(gx, f.grad, f.weight); }},
        {"conv_backward_weights",
         [&] { convBackwardWeightsInto(gw, f.x, f.grad, 3); }},
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
            e.name = std::string(k.name) + "_" +
                     simdBackendName(backend) + "_8c8m32x32k3";
            e.ns = ns;
            e.gflops = kConvFlops / ns.median;
            e.speedupVsScalar =
                scalar_ns > 0.0 ? scalar_ns / ns.median : 0.0;
            std::printf("  %-44s %10.0f ns  %6.2fx vs scalar\n",
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
    emitKernelReport();
    emitBackendSweep();
    return 0;
}
