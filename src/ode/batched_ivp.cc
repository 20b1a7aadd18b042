#include "ode/batched_ivp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "common/logging.h"
#include "common/trace_span.h"

namespace enode {

namespace {

/**
 * Rate-limited force-accept warning, same policy as the solo driver
 * (exponential backoff on a process-wide counter). The counter is
 * separate from the solo driver's on purpose: a batched serving fleet
 * underflowing should warn even when offline solo solves already did.
 */
void
warnForcedAcceptBatched(double t, double dt, double err_norm)
{
    static std::atomic<std::uint64_t> occurrences{0};
    const std::uint64_t n =
        occurrences.fetch_add(1, std::memory_order_relaxed);
    if ((n & (n + 1)) != 0)
        return; // not a 2^k - 1 boundary: suppressed
    ENODE_WARN("force-accepting batched step at t=", t, " dt=", dt,
               " err=", err_norm, " (occurrence ", n + 1,
               "; further warnings rate-limited)");
}

} // namespace

BatchedIvpResult
solveIvpBatched(BatchedOdeFunction &f, const std::vector<const Tensor *> &y0,
                double t0, double t1, const ButcherTableau &tableau,
                const std::vector<StepController *> &controllers,
                const IvpOptions &opts, BatchedIvpWorkspace *workspace,
                const std::vector<SolveGuard *> *guards)
{
    ENODE_ASSERT(t1 > t0, "solveIvpBatched needs t1 > t0");
    ENODE_ASSERT(opts.tolerance > 0.0 && opts.initialDt > 0.0,
                 "bad IvpOptions");
    const std::size_t n = y0.size();
    ENODE_ASSERT(controllers.size() == n, "one controller per sample");
    ENODE_ASSERT(guards == nullptr || guards->size() == n,
                 "guards sized like the batch when present");

    BatchedIvpResult result;
    result.yFinal.resize(n);
    result.stats.resize(n);
    result.status.assign(n, SolveStatus::Ok);
    if (n == 0)
        return result;

    const Shape state_shape = y0[0]->shape();
    for (std::size_t i = 0; i < n; i++) {
        ENODE_ASSERT(y0[i] != nullptr && controllers[i] != nullptr,
                     "null sample ", i);
        ENODE_ASSERT(y0[i]->shape() == state_shape,
                     "batch mixes state shapes: ", y0[i]->shape().str(),
                     " vs ", state_shape.str());
    }

    // Same span names as the solo driver, so a trace reads the same at
    // any batch size; `batch` tells the two apart.
    TraceSpan solve_span("solve.ivp", "solver");
    solve_span.arg("batch", static_cast<double>(n));

    const std::size_t s = tableau.stages();
    const auto &a = tableau.a();
    const auto &b = tableau.b();
    const auto &c = tableau.c();
    const std::size_t state_numel = state_shape.numel();

    BatchedIvpWorkspace local_ws;
    BatchedIvpWorkspace &ws = workspace ? *workspace : local_ws;
    if (ws.slots.size() < n)
        ws.slots.resize(n);
    for (std::size_t i = 0; i < n; i++) {
        ws.slots[i].y.copyFrom(*y0[i]);
        ws.slots[i].stages.resize(s);
        controllers[i]->reset(opts.initialDt);
    }

    // Per-sample walking state of the lockstep search. `active` samples
    // still have integrating to do; `inSearch` samples are mid
    // stepsize-search at their current evaluation point.
    std::vector<double> t(n, t0), dt_try(n, 0.0), dt_eff(n, 0.0);
    std::vector<std::uint32_t> n_try(n, 0);
    std::vector<char> active(n, 1), in_search(n, 0), have_fsal(n, 0);
    std::vector<std::uint64_t> underflow_forced(n, 0);
    std::vector<std::uint64_t> trial_budget_forced(n, 0);

    // Samples taking part in the current round's shared evaluation, and
    // the subset whose stage needs a fresh f evaluation (vs FSAL reuse).
    std::vector<std::size_t> trial_set, eval_set;
    trial_set.reserve(n);
    eval_set.reserve(n);

    while (true) {
        // Point starts: begin a stepsize search for every active sample
        // that is not already mid-search, retiring samples that reached
        // t1 or ran out of evaluation-point budget (same checks, same
        // order as the solo driver's outer loop).
        trial_set.clear();
        for (std::size_t i = 0; i < n; i++) {
            if (!active[i])
                continue;
            if (!in_search[i]) {
                if (!(t1 - t[i] > 1e-12 * std::max(1.0, std::abs(t1)))) {
                    active[i] = 0; // reached t1: this sample is done
                    continue;
                }
                if (result.stats[i].evalPoints >= opts.maxEvalPoints) {
                    result.status[i] = SolveStatus::EvalBudgetExhausted;
                    active[i] = 0;
                    continue;
                }
                dt_try[i] = controllers[i]->initialDt();
                n_try[i] = 0;
                in_search[i] = 1;
            }
            trial_set.push_back(i);
        }
        if (trial_set.empty())
            break;
        // One span per lockstep round: every in-search sample tries one
        // step (the batched counterpart of the solo per-trial span).
        TraceSpan trial_span("solve.trial", "solver");
        trial_span.arg("batch", static_cast<double>(trial_set.size()));

        // Clamp each sample's final step to land exactly on its t1.
        for (std::size_t i : trial_set) {
            const bool clamped = dt_try[i] > t1 - t[i];
            dt_eff[i] = clamped ? (t1 - t[i]) : dt_try[i];
        }

        // Stages: identical per-sample arithmetic to RkStepper::stepInto,
        // but the f evaluations of all in-flight trials are gathered into
        // one batched call per stage.
        for (std::size_t j = 0; j < s; j++) {
            eval_set.clear();
            for (std::size_t i : trial_set) {
                BatchedIvpWorkspace::Slot &slot = ws.slots[i];
                if (j == 0 && have_fsal[i] && tableau.fsal()) {
                    // FSAL reuse: k1 equals the last stage of the
                    // previous accepted step; no evaluation needed. It
                    // stays valid across retries since k1 = f(t, y)
                    // does not depend on dt.
                    slot.stages[0].copyFrom(slot.fsal);
                    continue;
                }
                // Stage input y_j = y + dt * sum_{l<j} a_{jl} k_l, with
                // the axpy order of the solo stepper (bitwise identity).
                Tensor &yj = slot.stageInput;
                yj.copyFrom(slot.y);
                for (std::size_t l = 0; l < j; l++) {
                    if (a[j][l] != 0.0)
                        yj.axpy(static_cast<float>(dt_eff[i] * a[j][l]),
                                slot.stages[l]);
                }
                eval_set.push_back(i);
            }
            if (eval_set.empty())
                continue;

            // Gather -> one shared evaluation -> scatter.
            const std::size_t m = eval_set.size();
            ws.packedIn.resize(state_shape.prepended(m));
            ws.packedTimes.resize(m);
            for (std::size_t idx = 0; idx < m; idx++) {
                const std::size_t i = eval_set[idx];
                const Tensor &yj = ws.slots[i].stageInput;
                std::copy(yj.data(), yj.data() + state_numel,
                          ws.packedIn.data() + idx * state_numel);
                ws.packedTimes[idx] = t[i] + c[j] * dt_eff[i];
            }
            f.evalInto(ws.packedTimes, ws.packedIn, ws.packedOut);
            ENODE_ASSERT(ws.packedOut.numel() == m * state_numel,
                         "batched f output numel mismatch");
            for (std::size_t idx = 0; idx < m; idx++) {
                const std::size_t i = eval_set[idx];
                Tensor &kj = ws.slots[i].stages[j];
                kj.resize(state_shape);
                const float *src = ws.packedOut.data() + idx * state_numel;
                std::copy(src, src + state_numel, kj.data());
                result.stats[i].fEvals++;
            }
        }

        // Verdicts: per-sample accept/reject with the solo driver's
        // exact bookkeeping, controller calls, and failure screens.
        for (std::size_t i : trial_set) {
            BatchedIvpWorkspace::Slot &slot = ws.slots[i];
            IvpStats &stats = result.stats[i];

            // y' = y + dt * sum_j b_j k_j.
            slot.yNext.copyFrom(slot.y);
            for (std::size_t j = 0; j < s; j++) {
                if (b[j] != 0.0)
                    slot.yNext.axpy(
                        static_cast<float>(dt_eff[i] * b[j]),
                        slot.stages[j]);
            }

            double decision_norm = 0.0;
            if (tableau.hasEmbedded()) {
                const auto &d = tableau.errorWeights();
                Tensor &e = slot.errorState;
                e.resize(state_shape);
                e.fill(0.0f);
                for (std::size_t j = 0; j < s; j++) {
                    if (d[j] != 0.0)
                        e.axpy(static_cast<float>(dt_eff[i] * d[j]),
                               slot.stages[j]);
                }
                decision_norm = e.l2Norm();
            }
            const bool trial_accepted =
                !tableau.hasEmbedded() ||
                (std::isfinite(decision_norm) &&
                 decision_norm <= opts.tolerance);

            n_try[i]++;
            stats.trials++;
            stats.equivalentTrials += 1.0;

            const bool underflow = dt_eff[i] <= opts.minDt;
            const bool trial_budget = n_try[i] >= opts.maxTrialsPerPoint;
            const bool force =
                !trial_accepted && (underflow || trial_budget);
            if (force) {
                stats.forcedAccepts++;
                if (underflow)
                    underflow_forced[i]++;
                else
                    trial_budget_forced[i]++;
                warnForcedAcceptBatched(t[i], dt_eff[i], decision_norm);
            }
            if (trial_accepted || force) {
                controllers[i]->accepted(dt_eff[i], decision_norm,
                                         opts.tolerance, n_try[i] == 1);
                // Swap rather than copy: yNext inherits the outgoing
                // state's buffer and reuses it next trial.
                slot.y = std::move(slot.yNext);
                if (opts.quantizeFp16)
                    slot.y.quantizeFp16();
                if (tableau.fsal() && !slot.stages.empty()) {
                    slot.fsal.copyFrom(slot.stages.back());
                    have_fsal[i] = 1;
                }
                t[i] += dt_eff[i];
                stats.evalPoints++;
                in_search[i] = 0;
                // Post-accept screening and guard check, per sample: a
                // failing sample leaves the batch alone and its
                // batchmates keep integrating.
                if (!slot.y.isFinite()) {
                    result.status[i] = SolveStatus::NonFinite;
                    active[i] = 0;
                } else if (guards != nullptr && (*guards)[i] != nullptr) {
                    const SolveStatus verdict = (*guards)[i]->check(stats);
                    if (verdict != SolveStatus::Ok) {
                        result.status[i] = verdict;
                        active[i] = 0;
                    }
                }
            } else {
                stats.rejected++;
                dt_try[i] = controllers[i]->rejectedDt(
                    dt_eff[i], decision_norm, opts.tolerance);
                ENODE_ASSERT(dt_try[i] > 0.0,
                             "controller proposed dt <= 0");
            }
        }
    }

    std::uint64_t total_eval_points = 0, total_f_evals = 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < n; i++) {
        // A sample that limped to t1 on force-accepted steps did not
        // meet its tolerance: surface the dominant cause (the solo
        // driver's dominance rule, applied per sample).
        if (result.status[i] == SolveStatus::Ok &&
            result.stats[i].forcedAccepts * 2 >
                result.stats[i].evalPoints) {
            result.status[i] =
                underflow_forced[i] >= trial_budget_forced[i]
                    ? SolveStatus::StepUnderflow
                    : SolveStatus::TrialBudgetExhausted;
        }
        result.yFinal[i] = std::move(ws.slots[i].y);
        total_eval_points += result.stats[i].evalPoints;
        total_f_evals += result.stats[i].fEvals;
        if (result.status[i] != SolveStatus::Ok)
            failed++;
    }
    solve_span.arg("eval_points", static_cast<double>(total_eval_points));
    solve_span.arg("f_evals", static_cast<double>(total_f_evals));
    solve_span.arg("failed_samples", static_cast<double>(failed));
    return result;
}

} // namespace enode
