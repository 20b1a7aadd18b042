/**
 * @file
 * Fault-injection subsystem and structured solver failure statuses:
 * deterministic probe firing, every SolveStatus driven through the
 * production solve path, guard semantics, and the seeded chaos sweep
 * (fault plans x worker counts) over the serving runtime. Built and
 * run under ASan/UBSan and TSan in CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/node_model.h"
#include "ode/step_control.h"
#include "runtime/inference_server.h"

namespace enode {
namespace {

constexpr std::uint64_t kSeed = 777;
constexpr std::size_t kDim = 4;

std::unique_ptr<NodeModel>
makeModel()
{
    Rng rng(kSeed);
    return NodeModel::makeMlp(/*num_layers=*/2, kDim, /*hidden=*/12,
                              /*f_depth=*/1, rng);
}

Tensor
makeInput(std::uint64_t salt)
{
    Rng rng(kSeed + 100 + salt);
    return Tensor::randn(Shape{kDim}, rng, 0.5f);
}

IvpOptions
quickOptions()
{
    IvpOptions opts;
    opts.tolerance = 1e-3;
    opts.initialDt = 0.1;
    opts.recordCheckpoints = false;
    return opts;
}

FaultSpec
corruptSpec(const char *site, std::uint64_t first_hit, std::uint64_t count,
            FaultKind kind = FaultKind::CorruptNaN)
{
    FaultSpec spec;
    spec.site = site;
    spec.kind = kind;
    spec.firstHit = first_hit;
    spec.count = count;
    return spec;
}

// ---------------------------------------------------------------------
// FaultInjector mechanics
// ---------------------------------------------------------------------

TEST(FaultInjector, DisarmedProbesAreInert)
{
    FaultInjector &inj = FaultInjector::instance();
    inj.disarm();
    float data[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    EXPECT_FALSE(inj.armed());
    EXPECT_FALSE(inj.shouldFail("queue.push"));
    EXPECT_EQ(inj.maybeStall("worker.stall"), 0.0);
    EXPECT_FALSE(inj.maybeCorrupt("node.feval", data, 4));
    for (float v : data)
        EXPECT_TRUE(std::isfinite(v));
    // Disarmed probes do not even count hits.
    EXPECT_EQ(inj.hits("queue.push"), 0u);
}

TEST(FaultInjector, CorruptsExactlyThePlannedHits)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.faults.push_back(corruptSpec("site.a", /*firstHit=*/2,
                                      /*count=*/2));
    ScopedFaultPlan scoped(plan);
    FaultInjector &inj = FaultInjector::instance();

    std::vector<bool> fired;
    for (int i = 0; i < 6; i++) {
        float data[8];
        for (int j = 0; j < 8; j++)
            data[j] = 1.0f;
        fired.push_back(inj.maybeCorrupt("site.a", data, 8));
    }
    EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false,
                                        false}));
    EXPECT_EQ(inj.hits("site.a"), 6u);
    EXPECT_EQ(inj.fired(), 2u);
    // Sites are independent: the same plan never matches another name.
    float other[2] = {0.0f, 0.0f};
    EXPECT_FALSE(inj.maybeCorrupt("site.b", other, 2));
}

TEST(FaultInjector, CorruptionIndexIsSeedDeterministic)
{
    auto corrupted_index = [](std::uint64_t seed) {
        FaultPlan plan;
        plan.seed = seed;
        plan.faults.push_back(corruptSpec("site.x", 0, 1));
        ScopedFaultPlan scoped(plan);
        float data[16];
        for (int j = 0; j < 16; j++)
            data[j] = 1.0f;
        EXPECT_TRUE(
            FaultInjector::instance().maybeCorrupt("site.x", data, 16));
        for (int j = 0; j < 16; j++)
            if (!std::isfinite(data[j]))
                return j;
        return -1;
    };
    const int first = corrupted_index(9001);
    EXPECT_GE(first, 0);
    // Same seed, same element — twice more.
    EXPECT_EQ(corrupted_index(9001), first);
    EXPECT_EQ(corrupted_index(9001), first);
}

TEST(FaultInjector, CorruptInfPokesInfinity)
{
    FaultPlan plan;
    plan.faults.push_back(
        corruptSpec("site.inf", 0, 1, FaultKind::CorruptInf));
    ScopedFaultPlan scoped(plan);
    float data[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    EXPECT_TRUE(FaultInjector::instance().maybeCorrupt("site.inf", data, 4));
    bool saw_inf = false;
    for (float v : data)
        saw_inf = saw_inf || std::isinf(v);
    EXPECT_TRUE(saw_inf);
}

TEST(FaultInjector, StallSleepsForConfiguredDuration)
{
    FaultPlan plan;
    FaultSpec stall;
    stall.site = "site.stall";
    stall.kind = FaultKind::Stall;
    stall.stallMs = 30.0;
    plan.faults.push_back(stall);
    ScopedFaultPlan scoped(plan);

    const auto before = std::chrono::steady_clock::now();
    EXPECT_EQ(FaultInjector::instance().maybeStall("site.stall"), 30.0);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - before)
            .count();
    EXPECT_GE(elapsed_ms, 25.0);
    // Second hit is past count=1: no sleep.
    EXPECT_EQ(FaultInjector::instance().maybeStall("site.stall"), 0.0);
}

TEST(FaultInjector, RejectFiresOnBooleanProbe)
{
    FaultPlan plan;
    FaultSpec reject;
    reject.site = "queue.push";
    reject.kind = FaultKind::Reject;
    reject.firstHit = 1;
    reject.count = 1;
    plan.faults.push_back(reject);
    ScopedFaultPlan scoped(plan);
    FaultInjector &inj = FaultInjector::instance();
    EXPECT_FALSE(inj.shouldFail("queue.push"));
    EXPECT_TRUE(inj.shouldFail("queue.push"));
    EXPECT_FALSE(inj.shouldFail("queue.push"));
}

// ---------------------------------------------------------------------
// Structured SolveStatus: every value reachable through the production
// solve path, and decided alike by both NodeModel forwards.
// ---------------------------------------------------------------------

/** One sample of a batched forward against its solo forward. */
void
expectSameSolve(const BatchedForwardResult &batched, std::size_t i,
                const NodeForwardResult &solo, const char *what)
{
    const IvpStats &stats = batched.stats[i];
    const Tensor &out = batched.outputs[i];
    EXPECT_EQ(batched.status[i], solo.status) << what;
    EXPECT_EQ(stats.evalPoints, solo.totalStats.evalPoints) << what;
    EXPECT_EQ(stats.trials, solo.totalStats.trials) << what;
    EXPECT_EQ(stats.rejected, solo.totalStats.rejected) << what;
    EXPECT_EQ(stats.forcedAccepts, solo.totalStats.forcedAccepts) << what;
    EXPECT_EQ(stats.fEvals, solo.totalStats.fEvals) << what;
    EXPECT_TRUE(out.shape() == solo.output.shape() &&
                std::memcmp(out.data(), solo.output.data(),
                            out.numel() * sizeof(float)) == 0)
        << what << ": output bits differ";
}

/**
 * Solve `x` with NodeModel::forward, then check NodeModel::forwardBatched
 * against it: as a batch of 1 and, unless the trigger is an
 * evaluation-indexed fault `plan` (whose hit order a batch reshuffles),
 * as the middle sample of a batch of 3 beside two clean batchmates (no
 * guard), each of which must equal its own solo forward. Every run gets
 * a fresh controller and a freshly armed plan. Returns the solo result.
 */
template <class Controller>
NodeForwardResult
solveBothWays(NodeModel &model, const Tensor &x, const IvpOptions &opts,
              SolveGuard *guard = nullptr, const FaultPlan *plan = nullptr)
{
    const ButcherTableau &tableau = ButcherTableau::rk23();
    const auto solo = [&](const Tensor &input, SolveGuard *g) {
        std::optional<ScopedFaultPlan> armed;
        if (plan != nullptr)
            armed.emplace(*plan);
        Controller ctrl;
        return model.forward(input, tableau, ctrl, opts, nullptr, g);
    };
    const auto batched = [&](const std::vector<Tensor> &xs,
                             std::vector<SolveGuard *> guards) {
        std::optional<ScopedFaultPlan> armed;
        if (plan != nullptr)
            armed.emplace(*plan);
        std::vector<Controller> ctrls(xs.size());
        std::vector<StepController *> ptrs;
        for (Controller &c : ctrls)
            ptrs.push_back(&c);
        return model.forwardBatched(xs, tableau, ptrs, opts, &guards);
    };

    const NodeForwardResult result = solo(x, guard);
    expectSameSolve(batched({x}, {guard}), 0, result, "batch of 1");
    if (plan == nullptr) {
        const std::vector<Tensor> xs = {makeInput(90), x, makeInput(91)};
        const BatchedForwardResult three =
            batched(xs, {nullptr, guard, nullptr});
        expectSameSolve(three, 1, result, "batch of 3");
        expectSameSolve(three, 0, solo(xs[0], nullptr), "batchmate 0");
        expectSameSolve(three, 2, solo(xs[2], nullptr), "batchmate 2");
    }
    return result;
}

TEST(SolveStatusMatrix, CleanSolveIsOk)
{
    auto model = makeModel();
    const auto fwd = solveBothWays<FixedFactorController>(
        *model, makeInput(0), quickOptions());
    EXPECT_EQ(fwd.status, SolveStatus::Ok);
    EXPECT_TRUE(fwd.output.isFinite());
    EXPECT_EQ(fwd.totalStats.forcedAccepts, 0u);
}

TEST(SolveStatusMatrix, PersistentNaNCorruptionYieldsNonFinite)
{
    setLogLevel(LogLevel::Silent);
    FaultPlan plan;
    plan.seed = 1;
    plan.faults.push_back(corruptSpec(
        "node.feval", 0, std::numeric_limits<std::uint64_t>::max()));

    auto model = makeModel();
    IvpOptions opts = quickOptions();
    opts.maxTrialsPerPoint = 4; // fail fast: every trial is poisoned
    const auto fwd = solveBothWays<FixedFactorController>(
        *model, makeInput(1), opts, nullptr, &plan);
    setLogLevel(LogLevel::Info);
    EXPECT_EQ(fwd.status, SolveStatus::NonFinite);
    // The poisoned state was force-accepted, screened, and the forward
    // pass stopped at the failing layer.
    EXPECT_GT(fwd.totalStats.forcedAccepts, 0u);
    EXPECT_EQ(fwd.layers.size(), 1u);
}

TEST(SolveStatusMatrix, TransientNaNCorruptionHealsViaRejection)
{
    // One corrupted evaluation poisons one trial; the retry at a
    // smaller dt re-evaluates f fresh and the solve converges clean.
    FaultPlan plan;
    plan.seed = 2;
    plan.faults.push_back(corruptSpec("node.feval", 1, 1));

    auto model = makeModel();
    const auto fwd = solveBothWays<FixedFactorController>(
        *model, makeInput(2), quickOptions(), nullptr, &plan);
    EXPECT_EQ(fwd.status, SolveStatus::Ok);
    EXPECT_TRUE(fwd.output.isFinite());
    EXPECT_GT(fwd.totalStats.rejected, 0u);
}

TEST(SolveStatusMatrix, MinDtFloorYieldsStepUnderflow)
{
    setLogLevel(LogLevel::Silent);
    auto model = makeModel();
    IvpOptions opts = quickOptions();
    opts.tolerance = 1e-30; // unreachable
    opts.initialDt = 0.05;
    opts.minDt = 0.04; // one halving hits the floor
    const auto fwd = solveBothWays<FixedFactorController>(
        *model, makeInput(3), opts);
    setLogLevel(LogLevel::Info);
    EXPECT_EQ(fwd.status, SolveStatus::StepUnderflow);
    EXPECT_GT(fwd.totalStats.forcedAccepts, 0u);
    // Every accepted point was forced at the floor.
    EXPECT_EQ(fwd.layers[0].stats.forcedAccepts,
              fwd.layers[0].stats.evalPoints);
}

TEST(SolveStatusMatrix, TrialCapYieldsTrialBudgetExhausted)
{
    setLogLevel(LogLevel::Silent);
    auto model = makeModel();
    // ConstantInit restarts every point from C, so the forced stepsize
    // never collapses toward the minDt floor: every point burns its 3
    // trials and is forced by the cap, not by underflow.
    IvpOptions opts = quickOptions();
    opts.tolerance = 1e-30; // unreachable
    opts.minDt = 1e-12;     // floor never reached in 3 trials
    opts.maxTrialsPerPoint = 3;
    const auto fwd = solveBothWays<ConstantInitController>(
        *model, makeInput(4), opts);
    setLogLevel(LogLevel::Info);
    EXPECT_EQ(fwd.status, SolveStatus::TrialBudgetExhausted);
}

TEST(SolveStatusMatrix, EvalPointCapYieldsEvalBudgetExhausted)
{
    auto model = makeModel();
    IvpOptions opts = quickOptions();
    opts.initialDt = 0.01; // needs ~100 points per layer
    opts.maxEvalPoints = 2;
    const auto fwd = solveBothWays<FixedFactorController>(
        *model, makeInput(5), opts);
    EXPECT_EQ(fwd.status, SolveStatus::EvalBudgetExhausted);
    EXPECT_EQ(fwd.layers[0].stats.evalPoints, 2u);
    // The forward pass stopped at the first failing layer.
    EXPECT_EQ(fwd.layers.size(), 1u);
}

TEST(SolveStatusMatrix, ExpiredDeadlineGuardAbortsAfterFirstStep)
{
    auto model = makeModel();
    DeadlineGuard guard;
    guard.deadline = DeadlineGuard::Clock::now() -
                     std::chrono::milliseconds(1);
    const auto fwd = solveBothWays<FixedFactorController>(
        *model, makeInput(6), quickOptions(), &guard);
    EXPECT_EQ(fwd.status, SolveStatus::DeadlineExceeded);
    EXPECT_EQ(fwd.layers[0].stats.evalPoints, 1u);
}

TEST(SolveStatusMatrix, FEvalBudgetGuardAborts)
{
    auto model = makeModel();
    DeadlineGuard guard;
    guard.maxFEvals = 1; // exceeded at the first accepted step
    const auto fwd = solveBothWays<FixedFactorController>(
        *model, makeInput(7), quickOptions(), &guard);
    EXPECT_EQ(fwd.status, SolveStatus::DeadlineExceeded);
    EXPECT_GT(fwd.totalStats.fEvals, 1u);
    EXPECT_EQ(fwd.layers[0].stats.evalPoints, 1u);
}

TEST(SolveStatusMatrix, FEvalBudgetSpansEveryLayer)
{
    // A budget no single layer spends but the whole forward pass does:
    // the guard sees the request's f evaluations over every layer so
    // far, so the second layer's solve exceeds it.
    auto model = makeModel();
    FixedFactorController ctrl;
    const NodeForwardResult clean = model->forward(
        makeInput(9), ButcherTableau::rk23(), ctrl, quickOptions());
    ASSERT_EQ(clean.status, SolveStatus::Ok);
    ASSERT_EQ(clean.layers.size(), 2u);
    DeadlineGuard guard;
    guard.maxFEvals = std::max(clean.layers[0].stats.fEvals,
                               clean.layers[1].stats.fEvals);
    ASSERT_LT(guard.maxFEvals, clean.totalStats.fEvals);

    const auto fwd = solveBothWays<FixedFactorController>(
        *model, makeInput(9), quickOptions(), &guard);
    EXPECT_EQ(fwd.status, SolveStatus::DeadlineExceeded);
    EXPECT_EQ(fwd.layers.size(), 2u);
    EXPECT_GT(fwd.totalStats.fEvals, guard.maxFEvals);
}

TEST(SolveStatusMatrix, AbortFlagStopsTheSolve)
{
    auto model = makeModel();
    std::atomic<bool> abort{true};
    DeadlineGuard guard;
    guard.abortFlag = &abort;
    const auto fwd = solveBothWays<FixedFactorController>(
        *model, makeInput(8), quickOptions(), &guard);
    EXPECT_EQ(fwd.status, SolveStatus::DeadlineExceeded);
}

TEST(SolveStatusMatrix, StatusNamesAreExhaustive)
{
    for (std::size_t i = 0; i < kNumSolveStatuses; i++)
        EXPECT_STRNE(solveStatusName(static_cast<SolveStatus>(i)), "");
}

// ---------------------------------------------------------------------
// Deterministic chaos sweep: seeded fault plans x worker counts over
// the serving runtime. Invariants, not exact schedules: no response
// ever carries a non-finite value, counters reconcile with admissions,
// and a fixed plan at one worker reproduces responses bit for bit.
// ---------------------------------------------------------------------

FaultPlan
chaosPlan(std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    // A burst of NaN-poisoned evaluations early on...
    plan.faults.push_back(
        corruptSpec("node.feval", (seed * 37) % 100, 60 + (seed % 40)));
    // ...an Inf burst later...
    plan.faults.push_back(corruptSpec("node.feval", 400 + (seed % 50), 30,
                                      FaultKind::CorruptInf));
    // ...and one forced admission rejection.
    FaultSpec reject;
    reject.site = "queue.push";
    reject.kind = FaultKind::Reject;
    reject.firstHit = 2 + (seed % 3);
    plan.faults.push_back(reject);
    return plan;
}

struct ChaosOutcome
{
    std::vector<RequestStatus> statuses;
    std::vector<Tensor> outputs;
    MetricsSummary summary;
};

ChaosOutcome
runChaos(std::uint64_t seed, std::size_t workers)
{
    ScopedFaultPlan scoped(chaosPlan(seed));
    ServerOptions opts;
    opts.numWorkers = workers;
    opts.queueCapacity = 64;
    opts.ivp = quickOptions();
    opts.ivp.maxTrialsPerPoint = 4; // poisoned points fail fast
    Rng model_rng(kSeed); // factory shared across calls: master stamps
    InferenceServer server(
        [&model_rng] {
            return NodeModel::makeMlp(2, kDim, 12, 1, model_rng);
        },
        opts);

    const std::size_t n = 10;
    std::vector<std::future<InferResponse>> futures;
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < n; i++) {
        auto sub = server.submit(makeInput(i));
        if (sub.accepted)
            futures.push_back(std::move(sub.result));
        else
            rejected++;
    }
    ChaosOutcome outcome;
    for (auto &future : futures) {
        InferResponse r = future.get();
        outcome.statuses.push_back(r.status);
        outcome.outputs.push_back(std::move(r.output));
    }
    server.stop();
    outcome.summary = server.metrics().summary();
    EXPECT_EQ(outcome.summary.rejected, rejected);
    return outcome;
}

TEST(ChaosSweep, InvariantsHoldAcrossSeedsAndWorkerCounts)
{
    setLogLevel(LogLevel::Silent);
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        for (std::size_t workers : {1u, 2u, 4u}) {
            ChaosOutcome o = runChaos(seed, workers);
            const MetricsSummary &s = o.summary;
            // The plan forces exactly one admission rejection.
            EXPECT_GE(s.rejected, 1u)
                << "seed " << seed << " workers " << workers;
            // Every admitted request reached exactly one terminal
            // state and the counters reconcile.
            EXPECT_EQ(s.completed + s.failed + s.expired + s.cancelled,
                      s.admitted)
                << "seed " << seed << " workers " << workers;
            // No payload ever contains a non-finite value; failures
            // carry no payload at all.
            for (std::size_t i = 0; i < o.statuses.size(); i++) {
                if (o.statuses[i] == RequestStatus::Ok) {
                    EXPECT_TRUE(o.outputs[i].isFinite());
                } else {
                    EXPECT_TRUE(o.outputs[i].empty());
                }
            }
            // Degraded responses are classified: each carries an
            // originating failure class.
            EXPECT_EQ(s.degraded + s.failed,
                      s.solveNonFinite + s.solveStepUnderflow +
                          s.solveTrialBudget + s.solveEvalBudget +
                          s.solveDeadline)
                << "seed " << seed << " workers " << workers;
        }
    }
    setLogLevel(LogLevel::Info);
}

TEST(ChaosSweep, FixedPlanSingleWorkerIsBitReproducible)
{
    setLogLevel(LogLevel::Silent);
    ChaosOutcome a = runChaos(5, 1);
    ChaosOutcome b = runChaos(5, 1);
    setLogLevel(LogLevel::Info);
    ASSERT_EQ(a.statuses.size(), b.statuses.size());
    for (std::size_t i = 0; i < a.statuses.size(); i++) {
        EXPECT_EQ(a.statuses[i], b.statuses[i]) << "request " << i;
        ASSERT_EQ(a.outputs[i].shape(), b.outputs[i].shape());
        if (a.outputs[i].numel() > 0) {
            EXPECT_EQ(
                std::memcmp(a.outputs[i].data(), b.outputs[i].data(),
                            a.outputs[i].numel() * sizeof(float)),
                0)
                << "request " << i
                << " diverged across identical chaos runs";
        }
    }
    EXPECT_EQ(a.summary.degraded, b.summary.degraded);
    EXPECT_EQ(a.summary.failed, b.summary.failed);
}

} // namespace
} // namespace enode
