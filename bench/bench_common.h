#ifndef ENODE_BENCH_BENCH_COMMON_H
#define ENODE_BENCH_BENCH_COMMON_H

/**
 * @file
 * Shared workload runners for the figure-reproduction benches.
 *
 * Each bench reproduces one table or figure of the paper. The runners
 * here train/evaluate small NODEs on the four benchmark workloads
 * (synthetic CIFAR-10-like, synthetic MNIST-like, Three-Body,
 * Lotka-Volterra) under a chosen stepsize-search policy, and report the
 * solver statistics (trials per integration layer, accuracy) plus the
 * WorkloadTraces the hardware models consume.
 *
 * Model sizes are scaled down from the paper's (64x64x64 states, 50k
 * training images) to laptop-runnable sizes; EXPERIMENTS.md records the
 * mapping. All randomness is seeded: every bench is reproducible.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "tensor/workspace.h"
#include "core/aca_trainer.h"
#include "core/node_model.h"
#include "core/priority.h"
#include "core/slope_adaptive.h"
#include "nn/optimizer.h"
#include "sim/trace.h"
#include "workloads/dynamic_systems.h"
#include "workloads/synthetic_images.h"

namespace enode {
namespace bench {

/** Which stepsize-search policy a run uses. */
enum class Policy
{
    Conventional,   ///< fixed-factor search (the paper's baseline)
    SlopeAdaptive,  ///< Sec. VII.A
    Expedited,      ///< slope-adaptive + priority/early-stop (full EA)
};

/** Per-run knobs. */
struct RunConfig
{
    Policy policy = Policy::Conventional;
    /**
     * Conventional-search variant: restart every evaluation point from
     * the constant C (the high-n_try regime of Fig. 4(a)) instead of
     * carrying the previous point's stepsize.
     */
    bool constantInit = false;
    double constantC = 0.3;
    int sAcc = 3;              ///< slope-adaptive thresholds
    int sRej = 3;
    std::size_t windowHeight = 10; ///< H_hat for priority processing
    double tolerance = 1e-4;   ///< epsilon (scaled to our state sizes)
    double initialDt = 0.02;   ///< C (conservative, as in the paper:
                               ///< the search must find larger steps)
    int trainIters = 30;
    int testSamples = 16;
    std::uint64_t seed = 1234;
};

/** What a workload run reports. */
struct RunResult
{
    std::string workload;
    double trialsPerLayer = 0.0;      ///< raw search trials per layer
    double equivTrialsPerLayer = 0.0; ///< work-weighted (early stop)
    double evalPointsPerLayer = 0.0;
    double accuracyPct = 0.0;         ///< classification % or regression
                                      ///< accuracy % (100 - rel. error %)
    WorkloadTrace inferenceTrace;     ///< one representative inference
    WorkloadTrace trainingTrace;      ///< one representative iteration
};

/** Build the controller for a policy (caller owns). */
std::unique_ptr<StepController>
makeController(const RunConfig &cfg)
{
    if (cfg.policy == Policy::Conventional) {
        if (cfg.constantInit)
            return std::make_unique<ConstantInitController>();
        return std::make_unique<FixedFactorController>();
    }
    SlopeAdaptiveOptions opts;
    opts.sAcc = cfg.sAcc;
    opts.sRej = cfg.sRej;
    return std::make_unique<SlopeAdaptiveController>(opts);
}

/** Expedited runs pair priority/early-stop with constant-C restarts
 * when requested (the regime of Figs. 12-13). */
inline std::unique_ptr<StepController>
makeExpeditedBase(const RunConfig &cfg)
{
    if (cfg.constantInit)
        return std::make_unique<ConstantInitController>();
    SlopeAdaptiveOptions opts;
    opts.sAcc = cfg.sAcc;
    opts.sRej = cfg.sRej;
    return std::make_unique<SlopeAdaptiveController>(opts);
}

/** Build the trial evaluator (null for policies without early stop). */
std::unique_ptr<PriorityTrialEvaluator>
makeEvaluator(const RunConfig &cfg)
{
    if (cfg.policy != Policy::Expedited)
        return nullptr;
    PriorityOptions opts;
    opts.windowHeight = cfg.windowHeight;
    return std::make_unique<PriorityTrialEvaluator>(opts);
}

/**
 * Train a NODE on a dynamic system and evaluate it.
 *
 * @param system "threebody" or "lotka".
 */
inline RunResult
runDynamicSystem(const std::string &system, const RunConfig &cfg)
{
    Rng rng(cfg.seed);
    std::unique_ptr<OdeFunction> truth;
    std::size_t dim = 0;
    double horizon = 1.0;
    if (system == "threebody") {
        auto tb = std::make_unique<ThreeBodyOde>();
        dim = ThreeBodyOde::stateDim;
        horizon = 0.3; // short horizon: the system is chaotic
        truth = std::move(tb);
    } else {
        auto lv = std::make_unique<LotkaVolterraOde>();
        dim = LotkaVolterraOde::stateDim;
        horizon = 1.0;
        truth = std::move(lv);
    }

    auto make_initial = [&](Rng &r) {
        if (system == "threebody")
            return static_cast<ThreeBodyOde *>(truth.get())
                ->randomInitialState(r);
        return static_cast<LotkaVolterraOde *>(truth.get())
            ->randomInitialState(r);
    };
    auto data = generateTrajectories(*truth, make_initial,
                                     16, cfg.testSamples, horizon, rng);

    // Two integration layers, MLP f (the NODE shape the paper's dynamic
    // benchmarks use, scaled down).
    auto model = NodeModel::makeMlp(2, dim, 48, 1, rng);
    Adam opt(model->paramSlots(), 5e-3);
    auto controller = cfg.policy == Policy::Expedited
                          ? makeExpeditedBase(cfg)
                          : makeController(cfg);
    auto evaluator = makeEvaluator(cfg);

    IvpOptions opts;
    opts.tolerance = cfg.tolerance;
    opts.initialDt = cfg.constantInit ? cfg.constantC : cfg.initialDt;

    for (int iter = 0; iter < 2 * cfg.trainIters; iter++) {
        const auto &pair = data.train[iter % data.train.size()];
        opt.zeroGrad();
        regressionTrainStep(*model, pair.x0, pair.target,
                            ButcherTableau::rk23(), *controller, opts,
                            evaluator.get());
        opt.clipGradNorm(10.0);
        opt.step();
    }

    // Evaluate: solver statistics + regression accuracy on held-out
    // pairs. Accuracy = 100 * (1 - relative L2 error), floored at 0.
    RunResult result;
    result.workload = system;
    IvpStats total;
    AcaStats bwd_total;
    double err_sum = 0.0, ref_sum = 0.0;
    NodeForwardResult last_fwd;
    for (const auto &pair : data.test) {
        auto fwd = model->forward(pair.x0, ButcherTableau::rk23(),
                                  *controller, opts, evaluator.get());
        total.accumulate(fwd.totalStats);
        err_sum += (fwd.output - pair.target).l2Norm();
        ref_sum += pair.target.l2Norm();
        last_fwd = std::move(fwd);
    }
    // One representative training iteration for the hardware traces.
    {
        const auto &pair = data.train.front();
        model->zeroGrad();
        auto step = regressionTrainStep(*model, pair.x0, pair.target,
                                        ButcherTableau::rk23(), *controller,
                                        opts, evaluator.get());
        result.trainingTrace = WorkloadTrace::synthetic(
            system + "-train", 2,
            static_cast<double>(step.forwardStats.evalPoints) / 2.0,
            step.forwardStats.evalPoints
                ? static_cast<double>(step.forwardStats.trials) /
                      step.forwardStats.evalPoints
                : 1.0,
            true,
            step.forwardStats.trials > step.forwardStats.evalPoints
                ? (step.forwardStats.equivalentTrials -
                   step.forwardStats.evalPoints) /
                      (static_cast<double>(step.forwardStats.trials) -
                       step.forwardStats.evalPoints)
                : 1.0);
    }

    const double layers = 2.0 * data.test.size();
    result.trialsPerLayer = static_cast<double>(total.trials) / layers;
    result.equivTrialsPerLayer = total.equivalentTrials / layers;
    result.evalPointsPerLayer =
        static_cast<double>(total.evalPoints) / layers;
    const double rel_err = ref_sum > 0.0 ? err_sum / ref_sum : 1.0;
    result.accuracyPct = 100.0 * std::max(0.0, 1.0 - rel_err);
    result.inferenceTrace =
        WorkloadTrace::fromForward(system, last_fwd);
    (void)bwd_total;
    return result;
}

/**
 * Train a NodeClassifier on a synthetic image workload.
 *
 * @param workload "cifar10" or "mnist" (synthetic stand-ins).
 */
inline RunResult
runImageWorkload(const std::string &workload, const RunConfig &cfg)
{
    Rng rng(cfg.seed);
    SyntheticImageConfig img_cfg =
        workload == "cifar10" ? cifarLikeConfig() : mnistLikeConfig();
    // Scale down for bench runtime: 12x12 maps, 3 classes.
    img_cfg.height = 12;
    img_cfg.width = 12;
    img_cfg.numClasses = 3;
    SyntheticImageDataset data(img_cfg, cfg.seed + 1);

    NodeClassifier model(img_cfg.channels, /*state_channels=*/6,
                         /*num_layers=*/2, /*f_depth=*/2,
                         img_cfg.numClasses, rng);
    Adam opt(model.paramSlots(), 3e-3);
    auto controller = cfg.policy == Policy::Expedited
                          ? makeExpeditedBase(cfg)
                          : makeController(cfg);
    auto evaluator = makeEvaluator(cfg);

    IvpOptions opts;
    opts.tolerance = cfg.tolerance * 30.0; // image states are larger maps
    opts.initialDt = cfg.constantInit
                         ? cfg.constantC
                         : 2.5 * cfg.initialDt; // coarser image grid

    TrainStepResult last_step{};
    // The synthetic classes separate within ~40 iterations at the
    // default budget; scale proportionally for smaller budgets.
    const int iters = std::max(1, (4 * cfg.trainIters) / 3);
    for (int iter = 0; iter < iters; iter++) {
        auto sample = data.sample(
            static_cast<std::size_t>(iter) % img_cfg.numClasses);
        opt.zeroGrad();
        last_step = classifierTrainStep(model, sample.image, sample.label,
                                        ButcherTableau::rk23(), *controller,
                                        opts, evaluator.get());
        opt.clipGradNorm(10.0);
        opt.step();
    }

    RunResult result;
    result.workload = workload;
    IvpStats total;
    int correct = 0;
    NodeForwardResult last_fwd;
    const int test_samples = std::min(cfg.testSamples, 6);
    for (int i = 0; i < test_samples; i++) {
        auto sample = data.sample(
            static_cast<std::size_t>(i) % img_cfg.numClasses);
        (void)sample;
        auto out = model.forward(sample.image, ButcherTableau::rk23(),
                                 *controller, opts, evaluator.get());
        total.accumulate(out.node.totalStats);
        correct += argmax(out.logits) == sample.label;
        last_fwd = std::move(out.node);
    }

    const double layers = 2.0 * test_samples;
    result.trialsPerLayer = static_cast<double>(total.trials) / layers;
    result.equivTrialsPerLayer = total.equivalentTrials / layers;
    result.evalPointsPerLayer =
        static_cast<double>(total.evalPoints) / layers;
    result.accuracyPct = 100.0 * correct / test_samples;
    result.inferenceTrace =
        WorkloadTrace::fromForward(workload, last_fwd);
    result.trainingTrace = WorkloadTrace::synthetic(
        workload + "-train", 2,
        static_cast<double>(last_step.forwardStats.evalPoints) / 2.0,
        last_step.forwardStats.evalPoints
            ? static_cast<double>(last_step.forwardStats.trials) /
                  last_step.forwardStats.evalPoints
            : 1.0,
        true);
    return result;
}

/** Run any of the four paper workloads by name. */
inline RunResult
runWorkload(const std::string &name, const RunConfig &cfg)
{
    if (name == "threebody" || name == "lotka")
        return runDynamicSystem(name, cfg);
    return runImageWorkload(name, cfg);
}

// ---------------------------------------------------------------------
// Machine-readable kernel report (BENCH_kernels.json)
//
// The micro-benches additionally emit a small JSON file so speedups and
// allocation counts can be checked by scripts (bench/check_bench.py)
// rather than read off the console. The file is merged by entry name:
// each bench binary rewrites its own entries and preserves everyone
// else's, so running bench_micro_conv and bench_micro_integrator in
// either order yields one combined report.
// ---------------------------------------------------------------------

/** Wall-clock ns per op over repeated timing loops. */
struct NsPerOp
{
    double median = 0.0; ///< what every ratio and gate reads
    double min = 0.0;
    double max = 0.0;
};

/** One row of the kernel report. Unused metrics stay at 0. */
struct KernelBenchEntry
{
    std::string name;
    NsPerOp ns;
    double gflops = 0.0;           ///< arithmetic throughput, when defined
    double allocMissesPerOp = 0.0; ///< heap allocations per op (pool misses)
    double speedupVsRef = 0.0;     ///< fast / reference pairing, when defined
    double parallelEfficiency = 0.0; ///< speedup / threads, when parallel
    /**
     * SIMD-backend sweep: this backend's throughput over the forced
     * scalar backend on the same kernel (scalar entries report 1.0).
     * bench/check_bench.py fails if any vector-backend entry drops
     * below 1.0, and requires >= 1.5 on the conv-forward, WRMS and
     * panel-matvec kernels.
     */
    double speedupVsScalar = 0.0;
};

/**
 * Wall-clock ns per call of each of `fns`: the median, min and max
 * over 7 timing loops. Each fn is called a few times first as warm-up
 * so pool effects and branch predictors settle, and one loop then
 * sizes its iteration count to run at least 50 ms. The timed loops of
 * the fns interleave, so a drift in the host's speed reaches them
 * alike and a ratio between them holds.
 */
inline std::vector<NsPerOp>
timeNsPerOpInterleaved(const std::vector<std::function<void()>> &fns)
{
    using Clock = std::chrono::steady_clock;
    constexpr double kMinLoopNs = 5e7;
    constexpr int kLoops = 7;
    const auto loopNs = [](const std::function<void()> &fn,
                           std::size_t iters) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < iters; i++)
            fn();
        return std::chrono::duration<double, std::nano>(Clock::now() -
                                                        start)
            .count();
    };
    std::vector<std::size_t> iters(fns.size(), 1);
    for (std::size_t f = 0; f < fns.size(); f++) {
        for (int i = 0; i < 3; i++)
            fns[f]();
        for (double elapsed = loopNs(fns[f], iters[f]);
             elapsed < kMinLoopNs; elapsed = loopNs(fns[f], iters[f]))
            iters[f] = elapsed <= 0.0
                           ? iters[f] * 2
                           : static_cast<std::size_t>(
                                 static_cast<double>(iters[f]) *
                                 std::max(2.0, 1.2 * kMinLoopNs / elapsed));
    }
    std::vector<std::vector<double>> ns(fns.size());
    for (int rep = 0; rep < kLoops; rep++)
        for (std::size_t f = 0; f < fns.size(); f++)
            ns[f].push_back(loopNs(fns[f], iters[f]) /
                            static_cast<double>(iters[f]));
    std::vector<NsPerOp> out;
    for (auto &v : ns) {
        std::sort(v.begin(), v.end());
        out.push_back({v[v.size() / 2], v.front(), v.back()});
    }
    return out;
}

/** Wall-clock ns per call of fn() (timeNsPerOpInterleaved alone). */
template <typename F>
inline NsPerOp
timeNsPerOp(F &&fn)
{
    return timeNsPerOpInterleaved({std::function<void()>(std::forward<F>(fn))})
        .front();
}

/** Steady-state heap allocations (pool misses) per call of fn(). */
template <typename F>
inline double
allocMissesPerOp(F &&fn, int iters = 8)
{
    for (int i = 0; i < 3; i++)
        fn(); // warm-up: size buffers, fill the pool
    auto &pool = Workspace::local();
    pool.resetStats();
    for (int i = 0; i < iters; i++)
        fn();
    return static_cast<double>(pool.stats().misses) / iters;
}

/**
 * Merge `entries` into the JSON report at `path` (by name) and rewrite
 * it, stamped with what the numbers were measured on: the build type
 * and compiler (ENODE_BUILD_TYPE and ENODE_COMPILER, defined for every
 * bench target in bench/CMakeLists.txt), the active SIMD backend and
 * the core count. The file is our own single-entry-per-line format;
 * unknown lines from other tools are not preserved, and the stamp is
 * rewritten on every merge.
 */
inline void
writeKernelReport(const std::vector<KernelBenchEntry> &entries,
                  const std::string &path = "BENCH_kernels.json")
{
    // Load existing entries: one per line, name extracted textually.
    std::vector<std::pair<std::string, std::string>> rows; // name -> line
    if (std::ifstream in{path}) {
        std::string line;
        while (std::getline(in, line)) {
            const auto key = line.find("\"name\": \"");
            if (key == std::string::npos)
                continue;
            const auto begin = key + 9;
            const auto end = line.find('"', begin);
            if (end == std::string::npos)
                continue;
            while (!line.empty() &&
                   (line.back() == ',' || line.back() == ' '))
                line.pop_back();
            rows.emplace_back(line.substr(begin, end - begin), line);
        }
    }

    auto format = [](const KernelBenchEntry &e) {
        std::ostringstream os;
        os << "    {\"name\": \"" << e.name << "\", \"ns_per_op\": "
           << std::fixed << std::setprecision(1) << e.ns.median
           << ", \"ns_min\": " << e.ns.min << ", \"ns_max\": " << e.ns.max
           << ", \"gflops\": " << std::setprecision(3) << e.gflops
           << ", \"alloc_misses_per_op\": " << e.allocMissesPerOp
           << ", \"speedup_vs_ref\": " << e.speedupVsRef
           << ", \"parallel_efficiency\": " << e.parallelEfficiency
           << ", \"speedup_vs_scalar\": " << e.speedupVsScalar << "}";
        return os.str();
    };
    for (const auto &e : entries) {
        bool replaced = false;
        for (auto &row : rows) {
            if (row.first == e.name) {
                row.second = format(e);
                replaced = true;
                break;
            }
        }
        if (!replaced)
            rows.emplace_back(e.name, format(e));
    }

    std::ofstream out(path, std::ios::trunc);
    out << "{\n  \"stamp\": {\"build_type\": \"" << ENODE_BUILD_TYPE
        << "\", \"simd_backend\": \"" << simdBackendName(activeSimdBackend())
        << "\", \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ", \"compiler\": \""
        << ENODE_COMPILER << "\"},\n  \"entries\": [\n";
    for (std::size_t i = 0; i < rows.size(); i++)
        out << rows[i].second << (i + 1 < rows.size() ? ",\n" : "\n");
    out << "  ]\n}\n";
}

} // namespace bench
} // namespace enode

#endif // ENODE_BENCH_BENCH_COMMON_H
