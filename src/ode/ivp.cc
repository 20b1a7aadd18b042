#include "ode/ivp.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/logging.h"
#include "common/trace_span.h"

namespace enode {

namespace {

/**
 * Rate-limited force-accept warning: exponential backoff on a
 * process-wide counter (warns on the 1st, 2nd, 4th, 8th... occurrence),
 * so a pathological stream of underflowing solves cannot flood the log.
 */
void
warnForcedAccept(double t, double dt, double err_norm)
{
    static std::atomic<std::uint64_t> occurrences{0};
    const std::uint64_t n =
        occurrences.fetch_add(1, std::memory_order_relaxed);
    if ((n & (n + 1)) != 0)
        return; // not a 2^k - 1 boundary: suppressed
    ENODE_WARN("force-accepting step at t=", t, " dt=", dt, " err=",
               err_norm, " (occurrence ", n + 1,
               "; further warnings rate-limited)");
}

} // namespace

const char *
solveStatusName(SolveStatus status)
{
    switch (status) {
      case SolveStatus::Ok:
        return "ok";
      case SolveStatus::NonFinite:
        return "non-finite";
      case SolveStatus::StepUnderflow:
        return "step-underflow";
      case SolveStatus::TrialBudgetExhausted:
        return "trial-budget-exhausted";
      case SolveStatus::EvalBudgetExhausted:
        return "eval-budget-exhausted";
      case SolveStatus::DeadlineExceeded:
        return "deadline-exceeded";
    }
    ENODE_PANIC("unknown SolveStatus");
}

SolveStatus
DeadlineGuard::check(const IvpStats &stats)
{
    if (abortFlag != nullptr && abortFlag->load(std::memory_order_acquire))
        return SolveStatus::DeadlineExceeded;
    if (maxFEvals != 0 && stats.fEvals > maxFEvals)
        return SolveStatus::DeadlineExceeded;
    if (deadline != Clock::time_point::max() && Clock::now() > deadline)
        return SolveStatus::DeadlineExceeded;
    return SolveStatus::Ok;
}

void
IvpStats::accumulate(const IvpStats &other)
{
    evalPoints += other.evalPoints;
    trials += other.trials;
    rejected += other.rejected;
    fEvals += other.fEvals;
    forcedAccepts += other.forcedAccepts;
    equivalentTrials += other.equivalentTrials;
}

void
TrialEvaluator::evaluate(OdeFunction &f, const RkStepper &stepper, double t,
                         const Tensor &y, double dt, double eps,
                         const Tensor *k1_reuse, Trial &trial)
{
    stepper.stepInto(f, t, y, dt, k1_reuse, trial.step);
    trial.decisionNorm = trial.step.errorNorm;
    trial.accepted = StepSearch::withinTolerance(stepper.tableau(),
                                                 trial.decisionNorm, eps);
    trial.workFraction = 1.0;
}

StepSearch::StepSearch(double t0, double t1, StepController &controller,
                       const ButcherTableau &tableau, const IvpOptions &opts)
    : controller_(&controller), tableau_(&tableau), opts_(&opts), t_(t0),
      t1_(t1)
{
    controller.reset(opts.initialDt);
}

bool
StepSearch::withinTolerance(const ButcherTableau &tableau, double err_norm,
                            double eps)
{
    return !tableau.hasEmbedded() ||
           (std::isfinite(err_norm) && err_norm <= eps);
}

bool
StepSearch::nextPoint(const IvpStats &stats, SolveStatus &status)
{
    if (status != SolveStatus::Ok ||
        !(t1_ - t_ > 1e-12 * std::max(1.0, std::abs(t1_))))
        return false;
    if (stats.evalPoints >= opts_->maxEvalPoints) {
        status = SolveStatus::EvalBudgetExhausted;
        return false;
    }
    trials_ = 0;
    propose(controller_->initialDt());
    return true;
}

bool
StepSearch::judge(bool within, double err_norm, double work_fraction,
                  IvpStats &stats)
{
    trials_++;
    stats.trials++;
    stats.equivalentTrials += work_fraction;
    if (!within) {
        const bool underflow = dt_ <= opts_->minDt;
        if (!underflow && trials_ < opts_->maxTrialsPerPoint) {
            stats.rejected++;
            const double retry =
                controller_->rejectedDt(dt_, err_norm, opts_->tolerance);
            ENODE_ASSERT(retry > 0.0, "controller proposed dt <= 0");
            propose(retry);
            return false;
        }
        stats.forcedAccepts++;
        (underflow ? underflowForced_ : trialBudgetForced_)++;
        warnForcedAccept(t_, dt_, err_norm);
    }
    controller_->accepted(dt_, err_norm, opts_->tolerance, trials_ == 1);
    return true;
}

SolveStatus
StepSearch::accept(Tensor &y, Tensor &y_next,
                   const std::vector<Tensor> &stages, Tensor &fsal,
                   IvpStats &stats, SolveGuard *guard)
{
    y = std::move(y_next);
    if (opts_->quantizeFp16)
        y.quantizeFp16();
    // FSAL: the last stage is the next point's k1 = f(t, y), valid
    // across its retries too, since k1 does not depend on dt.
    if (tableau_->fsal()) {
        fsal.copyFrom(stages.back());
        fsalValid_ = true;
    }
    t_ += dt_;
    stats.evalPoints++;
    // Cheap post-accept screening: a NaN/Inf accepted state (FP16
    // overflow, corrupted f output force-accepted at minDt) ends the
    // solve with a structured status instead of propagating garbage to
    // the next layer.
    if (!y.isFinite())
        return SolveStatus::NonFinite;
    return guard != nullptr ? guard->check(stats) : SolveStatus::Ok;
}

SolveStatus
StepSearch::finish(SolveStatus status, const IvpStats &stats) const
{
    if (status != SolveStatus::Ok ||
        stats.forcedAccepts * 2 <= stats.evalPoints)
        return status;
    return underflowForced_ >= trialBudgetForced_
               ? SolveStatus::StepUnderflow
               : SolveStatus::TrialBudgetExhausted;
}

IvpResult
solveIvp(OdeFunction &f, const Tensor &y0, double t0, double t1,
         const ButcherTableau &tableau, StepController &controller,
         const IvpOptions &opts, TrialEvaluator *evaluator,
         IvpWorkspace *workspace, SolveGuard *guard)
{
    ENODE_ASSERT(t1 > t0, "solveIvp needs t1 > t0");
    ENODE_ASSERT(opts.tolerance > 0.0 && opts.initialDt > 0.0,
                 "bad IvpOptions");

    TrialEvaluator default_evaluator;
    TrialEvaluator &eval = evaluator ? *evaluator : default_evaluator;

    TraceSpan solve_span("solve.ivp", "solver");

    RkStepper stepper(tableau);
    StepSearch search(t0, t1, controller, tableau, opts);

    IvpResult result;
    // All per-step buffers live in the workspace (a local one if the
    // caller did not pass theirs — still allocation-free per step, the
    // buffers just return to the thread pool when the solve ends).
    IvpWorkspace local_ws;
    IvpWorkspace &ws = workspace ? *workspace : local_ws;
    TrialEvaluator::Trial &trial = ws.trial;
    ws.y.copyFrom(y0);
    Tensor &y = ws.y;
    const std::uint64_t f_evals_at_start = f.evalCount();

    while (search.nextPoint(result.stats, result.status)) {
        eval.pointStart();
        bool accepted = false;
        do {
            // One span per stepsize-search trial: the accept/reject
            // dynamics of Fig. 2(d), time-resolved. Disarmed cost is a
            // single relaxed atomic load.
            TraceSpan trial_span("solve.trial", "solver");
            eval.evaluate(f, stepper, search.t(), y, search.dt(),
                          opts.tolerance,
                          search.fsalValid() ? &ws.fsalStage : nullptr,
                          trial);
            trial_span.arg("dt", search.dt());
            trial_span.arg("err_norm", trial.decisionNorm);
            accepted = search.judge(trial.accepted, trial.decisionNorm,
                                    trial.workFraction, result.stats);
            trial_span.arg("accept", accepted ? 1.0 : 0.0);
            if (accepted && !trial.accepted)
                trial_span.arg("forced", 1.0);
        } while (!accepted);

        if (opts.recordCheckpoints) {
            result.checkpoints.push_back({search.t(), search.dt(), y});
            result.trialsPerPoint.push_back(search.trials());
        }
        result.stats.fEvals = f.evalCount() - f_evals_at_start;
        result.status = search.accept(y, trial.step.yNext, trial.step.stages,
                                      ws.fsalStage, result.stats, guard);
    }
    result.status = search.finish(result.status, result.stats);

    result.yFinal = std::move(y);
    result.stats.fEvals = f.evalCount() - f_evals_at_start;
    solve_span.arg("eval_points",
                   static_cast<double>(result.stats.evalPoints));
    solve_span.arg("trials", static_cast<double>(result.stats.trials));
    solve_span.arg("f_evals", static_cast<double>(result.stats.fEvals));
    solve_span.arg("status", static_cast<double>(result.status));
    return result;
}

} // namespace enode
