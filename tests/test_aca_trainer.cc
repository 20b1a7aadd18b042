/**
 * @file
 * ACA training: the discrete adjoint must match finite differences.
 *
 * This is the strongest correctness property in the library: the
 * backward pass of Sec. II.C (local forward + adjoint + parameter
 * gradients) is validated against central finite differences of the
 * *entire* forward solve, for both MLP and conv embedded networks, and
 * for several integrators.
 */

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "core/aca_trainer.h"
#include "core/node_model.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "ode/step_control.h"
#include "tensor/workspace.h"

/**
 * Process-wide allocation counter (same idiom as test_workspace.cc):
 * the pool's miss counter only sees pool traffic, while the trainer's
 * zero-alloc contract is stated against *all* heap traffic — including
 * std::vector growth inside the backward workspace.
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

/** Forward solve -> MSE loss, used as the scalar objective for FD. */
double
lossOf(NodeModel &model, const Tensor &x0, const Tensor &target,
       const ButcherTableau &tab, const IvpOptions &opts)
{
    FixedFactorController ctrl;
    auto fwd = model.forward(x0, tab, ctrl, opts);
    return mseLoss(fwd.output, target).value;
}

struct GradCheck
{
    double sumSqDiff = 0.0;
    double sumSqFd = 0.0;
    std::size_t checked = 0;

    /** Aggregate relative L2 error, robust to FD noise on tiny entries. */
    double
    relErr() const
    {
        return std::sqrt(sumSqDiff) / std::max(std::sqrt(sumSqFd), 1e-8);
    }
};

/**
 * Compare ACA gradients with central differences on a subset of
 * parameters. The forward solve must take *identical* steps for the
 * perturbed evaluations, so the tolerance is loose enough that the
 * accepted step sequence is stable under the perturbation.
 */
GradCheck
checkGradients(NodeModel &model, const Tensor &x0, const Tensor &target,
               const ButcherTableau &tab, const IvpOptions &opts,
               double fd_eps, std::size_t max_params_per_slot)
{
    FixedFactorController ctrl;
    model.zeroGrad();
    auto fwd = model.forward(x0, tab, ctrl, opts);
    auto loss = mseLoss(fwd.output, target);
    acaBackward(model, tab, fwd, loss.grad);

    GradCheck check;
    for (auto &slot : model.paramSlots()) {
        const std::size_t n =
            std::min(slot.param->numel(), max_params_per_slot);
        for (std::size_t i = 0; i < n; i++) {
            const float saved = slot.param->at(i);
            slot.param->at(i) = saved + static_cast<float>(fd_eps);
            const double plus = lossOf(model, x0, target, tab, opts);
            slot.param->at(i) = saved - static_cast<float>(fd_eps);
            const double minus = lossOf(model, x0, target, tab, opts);
            slot.param->at(i) = saved;

            const double fd = (plus - minus) / (2.0 * fd_eps);
            const double analytic = slot.grad->at(i);
            check.sumSqDiff += (fd - analytic) * (fd - analytic);
            check.sumSqFd += fd * fd;
            check.checked++;
        }
    }
    return check;
}

IvpOptions
fixedStepOptions()
{
    // A generous tolerance keeps the accepted-step sequence identical
    // under the finite-difference perturbations.
    IvpOptions opts;
    opts.tolerance = 1e-1;
    opts.initialDt = 0.25;
    return opts;
}

TEST(AcaTrainer, MlpGradientsMatchFiniteDifferencesRk23)
{
    Rng rng(7);
    auto model = NodeModel::makeMlp(1, 4, 8, 1, rng);
    Tensor x0 = Tensor::randn(Shape{4}, rng, 0.5f);
    Tensor target = Tensor::randn(Shape{4}, rng, 0.5f);

    auto check = checkGradients(*model, x0, target, ButcherTableau::rk23(),
                                fixedStepOptions(), 1e-3, 12);
    EXPECT_GT(check.checked, 30u);
    EXPECT_LT(check.relErr(), 2e-2) << "adjoint deviates from FD";
}

TEST(AcaTrainer, MlpGradientsMatchFiniteDifferencesDopri5)
{
    Rng rng(11);
    auto model = NodeModel::makeMlp(1, 3, 6, 1, rng);
    Tensor x0 = Tensor::randn(Shape{3}, rng, 0.5f);
    Tensor target = Tensor::randn(Shape{3}, rng, 0.5f);

    auto check = checkGradients(*model, x0, target,
                                ButcherTableau::dopri5(), fixedStepOptions(),
                                1e-3, 10);
    EXPECT_GT(check.checked, 20u);
    EXPECT_LT(check.relErr(), 2e-2);
}

TEST(AcaTrainer, MlpGradientsMatchFiniteDifferencesEuler)
{
    Rng rng(13);
    auto model = NodeModel::makeMlp(1, 3, 6, 1, rng);
    Tensor x0 = Tensor::randn(Shape{3}, rng, 0.5f);
    Tensor target = Tensor::randn(Shape{3}, rng, 0.5f);

    auto check = checkGradients(*model, x0, target, ButcherTableau::euler(),
                                fixedStepOptions(), 1e-3, 10);
    EXPECT_LT(check.relErr(), 2e-2);
}

TEST(AcaTrainer, ConvGradientsMatchFiniteDifferences)
{
    Rng rng(3);
    auto model = NodeModel::makeConv(1, 4, 2, rng);
    Tensor x0 = Tensor::randn(Shape{4, 6, 6}, rng, 0.5f);
    Tensor target = Tensor::randn(Shape{4, 6, 6}, rng, 0.5f);

    auto check = checkGradients(*model, x0, target, ButcherTableau::rk23(),
                                fixedStepOptions(), 1e-3, 6);
    EXPECT_GT(check.checked, 20u);
    EXPECT_LT(check.relErr(), 3e-2);
}

TEST(AcaTrainer, InputGradientMatchesFiniteDifferences)
{
    Rng rng(19);
    auto model = NodeModel::makeMlp(1, 4, 8, 1, rng);
    Tensor x0 = Tensor::randn(Shape{4}, rng, 0.5f);
    Tensor target = Tensor::randn(Shape{4}, rng, 0.5f);
    const auto &tab = ButcherTableau::rk23();
    const auto opts = fixedStepOptions();

    FixedFactorController ctrl;
    model->zeroGrad();
    auto fwd = model->forward(x0, tab, ctrl, opts);
    auto loss = mseLoss(fwd.output, target);
    auto aca = acaBackward(*model, tab, fwd, loss.grad);

    const double fd_eps = 1e-3;
    for (std::size_t i = 0; i < x0.numel(); i++) {
        Tensor xp = x0, xm = x0;
        xp.at(i) += static_cast<float>(fd_eps);
        xm.at(i) -= static_cast<float>(fd_eps);
        const double plus = lossOf(*model, xp, target, tab, opts);
        const double minus = lossOf(*model, xm, target, tab, opts);
        const double fd = (plus - minus) / (2.0 * fd_eps);
        const double analytic = aca.gradInput.at(i);
        const double scale =
            std::max({std::abs(fd), std::abs(analytic), 1e-4});
        EXPECT_LT(std::abs(fd - analytic) / scale, 2e-2)
            << "input grad " << i;
    }
}

TEST(AcaTrainer, BackwardSkipsFsalStage)
{
    // RK23's k4 has b=0 and no downstream consumer: the backward pass
    // must not evaluate a VJP for it (Sec. IV.B: "only computes the
    // integral states k1, k2 and k3").
    Rng rng(5);
    auto model = NodeModel::makeMlp(1, 3, 6, 1, rng);
    Tensor x0 = Tensor::randn(Shape{3}, rng, 0.5f);
    Tensor target = Tensor::randn(Shape{3}, rng, 0.5f);

    FixedFactorController ctrl;
    IvpOptions opts = fixedStepOptions();
    auto fwd = model->forward(x0, ButcherTableau::rk23(), ctrl, opts);
    auto loss = mseLoss(fwd.output, target);
    auto aca = acaBackward(*model, ButcherTableau::rk23(), fwd, loss.grad);

    // 3 VJPs per step, not 4.
    EXPECT_EQ(aca.stats.adjointVjps, 3 * aca.stats.backwardSteps);
    // Local forward evaluates all 4 stages.
    EXPECT_EQ(aca.stats.localForwardEvals, 4 * aca.stats.backwardSteps);
    EXPECT_EQ(aca.stats.backwardSteps, fwd.totalStats.evalPoints);
}

TEST(AcaTrainer, TrainingReducesRegressionLoss)
{
    Rng rng(23);
    auto model = NodeModel::makeMlp(1, 2, 16, 1, rng);
    // Learn to rotate a point: target is a fixed linear map of x0.
    Tensor x0(Shape{2}, {1.0f, 0.0f});
    Tensor target(Shape{2}, {0.0f, 1.0f});

    Sgd opt(model->paramSlots(), 0.05, 0.9);
    FixedFactorController ctrl;
    IvpOptions opts;
    opts.tolerance = 1e-4;
    opts.initialDt = 0.2;

    double first_loss = 0.0, last_loss = 0.0;
    for (int iter = 0; iter < 40; iter++) {
        opt.zeroGrad();
        auto step = regressionTrainStep(*model, x0, target,
                                        ButcherTableau::rk23(), ctrl, opts);
        if (iter == 0)
            first_loss = step.loss;
        last_loss = step.loss;
        opt.step();
    }
    EXPECT_LT(last_loss, 0.2 * first_loss)
        << "training failed to reduce loss: " << first_loss << " -> "
        << last_loss;
}

TEST(AcaTrainer, WorkspaceBackwardMatchesDefaultPath)
{
    // The pooled-workspace backward is the same math as the implicit
    // thread-local path: gradients must agree bitwise.
    Rng rng(29);
    auto model = NodeModel::makeMlp(1, 3, 8, 1, rng);
    Tensor x0 = Tensor::randn(Shape{3}, rng, 0.5f);
    Tensor target = Tensor::randn(Shape{3}, rng, 0.5f);
    FixedFactorController ctrl;
    IvpOptions opts = fixedStepOptions();

    model->zeroGrad();
    auto fwd = model->forward(x0, ButcherTableau::rk23(), ctrl, opts);
    auto loss = mseLoss(fwd.output, target);
    acaBackward(*model, ButcherTableau::rk23(), fwd, loss.grad);
    std::vector<Tensor> reference;
    for (auto &slot : model->paramSlots()) {
        Tensor copy;
        copy.copyFrom(*slot.grad);
        reference.push_back(std::move(copy));
    }

    AcaWorkspace ws;
    for (int repeat = 0; repeat < 3; repeat++) {
        model->zeroGrad();
        acaBackward(*model, ButcherTableau::rk23(), fwd, loss.grad, &ws);
        const auto slots = model->paramSlots();
        for (std::size_t s = 0; s < slots.size(); s++)
            EXPECT_TRUE(
                Tensor::allClose(*slots[s].grad, reference[s], 0.0, 0.0))
                << "workspace backward diverged at slot " << s
                << " repeat " << repeat;
    }
}

TEST(AcaTrainer, BackwardSteadyStateAllocatesNothing)
{
    // The trainer hot path contract: once the workspace is sized, a
    // backward pass touches neither the heap nor the pool's slow path
    // — every stage tensor, stage input, and adjoint temporary comes
    // from recycled storage.
    Rng rng(31);
    auto model = NodeModel::makeMlp(1, 4, 8, 1, rng);
    Tensor x0 = Tensor::randn(Shape{4}, rng, 0.5f);
    Tensor target = Tensor::randn(Shape{4}, rng, 0.5f);
    FixedFactorController ctrl;
    IvpOptions opts = fixedStepOptions();

    auto fwd = model->forward(x0, ButcherTableau::rk23(), ctrl, opts);
    auto loss = mseLoss(fwd.output, target);

    AcaWorkspace ws;
    const auto backwardOnce = [&] {
        model->zeroGrad();
        acaBackward(*model, ButcherTableau::rk23(), fwd, loss.grad, &ws);
    };
    // Warm-ups size the workspace vectors and the pool's buffer bins.
    backwardOnce();
    backwardOnce();

    auto &pool = Workspace::local();
    pool.resetStats();
    model->zeroGrad();
    const std::uint64_t heap_before =
        g_heap_allocs.load(std::memory_order_relaxed);
    acaBackward(*model, ButcherTableau::rk23(), fwd, loss.grad, &ws);
    const std::uint64_t heap_delta =
        g_heap_allocs.load(std::memory_order_relaxed) - heap_before;
    EXPECT_EQ(pool.stats().misses, 0u)
        << "steady-state backward missed the tensor pool";
    EXPECT_EQ(heap_delta, 0u)
        << "steady-state backward touched the heap";
}

TEST(AcaTrainer, BackwardAllocationsIndependentOfTrajectoryLength)
{
    // Longer trajectories mean more checkpoints and more adjoint steps
    // — but per-call allocations must stay flat at zero once warm: the
    // workspace holds per-*stage* scratch, not per-step history. The
    // full train-step body (zeroGrad + backward) may carry a small
    // fixed overhead (paramSlots vectors), but it must not scale with
    // the number of steps.
    Rng rng(37);
    auto model = NodeModel::makeMlp(1, 4, 8, 1, rng);
    Tensor x0 = Tensor::randn(Shape{4}, rng, 0.5f);
    Tensor target = Tensor::randn(Shape{4}, rng, 0.5f);
    FixedFactorController ctrl;

    AcaWorkspace ws;
    std::uint64_t per_call = ~std::uint64_t{0};
    for (double dt : {0.25, 0.125, 0.0625}) {
        IvpOptions opts = fixedStepOptions();
        opts.initialDt = dt; // smaller dt -> more recorded checkpoints
        auto fwd = model->forward(x0, ButcherTableau::rk23(), ctrl, opts);
        auto loss = mseLoss(fwd.output, target);

        model->zeroGrad();
        acaBackward(*model, ButcherTableau::rk23(), fwd, loss.grad, &ws);
        const std::uint64_t heap_before =
            g_heap_allocs.load(std::memory_order_relaxed);
        model->zeroGrad();
        auto aca =
            acaBackward(*model, ButcherTableau::rk23(), fwd, loss.grad, &ws);
        const std::uint64_t heap_delta =
            g_heap_allocs.load(std::memory_order_relaxed) - heap_before;
        if (per_call == ~std::uint64_t{0})
            per_call = heap_delta;
        EXPECT_EQ(heap_delta, per_call)
            << "warm backward allocations scale with trajectory length "
               "at dt="
            << dt << " (" << aca.stats.backwardSteps << " steps)";
    }
}

TEST(AcaTrainer, BackwardBitwiseIdenticalAcrossSimdBackends)
{
    // Every kernel under the backward is bitwise identical across SIMD
    // backends (elementwise axpy in the Linear VJP and the stage sums,
    // fixed-lane dot in the local forward), so the whole ACA pass must
    // be too. Shape of the serving benchmark's online-training model:
    // 2 layers, dim 16, hidden 64, f depth 2, RK23 at tolerance 1e-3.
    Rng rng(43);
    auto model = NodeModel::makeMlp(2, 16, 64, 2, rng);
    const Tensor x0 = Tensor::randn(Shape{16}, rng, 0.5f);
    const Tensor target = x0 * 0.5f;
    FixedFactorController ctrl;
    IvpOptions opts;
    opts.tolerance = 1e-3;
    opts.initialDt = 0.05;

    auto fwd = model->forward(x0, ButcherTableau::rk23(), ctrl, opts);
    ASSERT_EQ(fwd.status, SolveStatus::Ok);
    auto loss = mseLoss(fwd.output, target);

    const auto gradientsUnder = [&](SimdBackend backend) {
        ScopedSimdBackend force(backend);
        EXPECT_TRUE(force.applied());
        model->zeroGrad();
        auto aca = acaBackward(*model, ButcherTableau::rk23(), fwd, loss.grad);
        std::vector<float> flat(aca.gradInput.data(),
                                aca.gradInput.data() + aca.gradInput.numel());
        for (auto &slot : model->paramSlots())
            flat.insert(flat.end(), slot.grad->data(),
                        slot.grad->data() + slot.grad->numel());
        return flat;
    };

    const std::vector<float> reference = gradientsUnder(SimdBackend::Scalar);
    ASSERT_EQ(reference.size(), 16 + model->paramCount());
    for (SimdBackend backend : availableSimdBackends()) {
        const std::vector<float> got = gradientsUnder(backend);
        ASSERT_EQ(got.size(), reference.size());
        EXPECT_EQ(std::memcmp(got.data(), reference.data(),
                              got.size() * sizeof(float)),
                  0)
            << simdBackendName(backend) << " backward diverged from scalar";
    }
}

TEST(AcaTrainer, TrainStepReportsForwardFailure)
{
    // A forward that cannot finish (zero f-eval budget) must surface
    // through forwardStatus with the backward skipped — not feed the
    // optimizer garbage gradients.
    Rng rng(41);
    auto model = NodeModel::makeMlp(1, 3, 6, 1, rng);
    Tensor x0 = Tensor::randn(Shape{3}, rng, 0.5f);
    Tensor target = Tensor::randn(Shape{3}, rng, 0.5f);
    FixedFactorController ctrl;
    IvpOptions opts = fixedStepOptions();
    opts.maxEvalPoints = 1; // starve the forward

    model->zeroGrad();
    auto step = regressionTrainStep(*model, x0, target,
                                    ButcherTableau::rk23(), ctrl, opts);
    EXPECT_NE(step.forwardStatus, SolveStatus::Ok);
    for (auto &slot : model->paramSlots())
        for (std::size_t i = 0; i < slot.grad->numel(); i++)
            EXPECT_EQ(slot.grad->at(i), 0.0f)
                << "failed forward leaked gradients";
}

} // namespace
} // namespace enode
