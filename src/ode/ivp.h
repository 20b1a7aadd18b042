#ifndef ENODE_ODE_IVP_H
#define ENODE_ODE_IVP_H

/**
 * @file
 * Adaptive initial-value-problem driver — one NODE integration layer.
 *
 * Solves h(T) = h(0) + integral of f over [0, T] (Eq. 2) by walking
 * evaluation points with an iterative stepsize search (Fig. 2(d)):
 *
 *   for each evaluation point:
 *     dt_try = controller.initialDt()
 *     loop: trial integrate; accept if ||e||_2 <= eps else shrink dt_try
 *
 * The search's decisions live in StepSearch, which the batched driver
 * walks too. The *trial* is pluggable through TrialEvaluator so the
 * paper's priority processing + early stop (Sec. VII.B) can replace the
 * full error evaluation with a windowed, early-terminating one. The
 * driver records every accepted evaluation point as a checkpoint —
 * exactly the state the ACA backward pass (Sec. II.C) replays.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "ode/rk_stepper.h"
#include "ode/step_control.h"

namespace enode {

/**
 * How a solve ended. Anything but Ok means the returned state must not
 * be trusted as a converged solution: the caller (e.g. the serving
 * runtime's degradation ladder) decides whether to retry, fall back, or
 * fail the request. The driver stops at the first NonFinite or guard
 * failure; budget statuses classify solves that ran to a budget wall.
 */
enum class SolveStatus : std::uint8_t
{
    Ok = 0,               ///< converged within tolerance and budgets
    NonFinite,            ///< an accepted state contained NaN/Inf
    StepUnderflow,        ///< minDt force-accepts dominated the solve
    TrialBudgetExhausted, ///< per-point trial-cap force-accepts dominated
    EvalBudgetExhausted,  ///< maxEvalPoints reached before t1
    DeadlineExceeded,     ///< a SolveGuard aborted the solve mid-flight
};

/** Number of SolveStatus values (for exhaustive test matrices). */
constexpr std::size_t kNumSolveStatuses = 6;

/** Human-readable status name. */
const char *solveStatusName(SolveStatus status);

/** Per-solve accounting that backs the complexity analysis of Fig. 3. */
struct IvpStats
{
    std::uint64_t evalPoints = 0; ///< n_eval: accepted steps
    std::uint64_t trials = 0;     ///< total search trials (n_eval * n_try)
    std::uint64_t rejected = 0;   ///< rejected trials
    std::uint64_t fEvals = 0;     ///< embedded-NN evaluations
    /**
     * Steps accepted *despite* failing the tolerance test, because the
     * stepsize hit the minDt floor or the per-point trial cap. A solve
     * dominated by forced accepts is reported as StepUnderflow /
     * TrialBudgetExhausted rather than silently returning garbage.
     */
    std::uint64_t forcedAccepts = 0;
    /**
     * Work actually performed, in units of full-feature-map trials.
     * Without early stop this equals trials; with priority processing a
     * trial that stops after a fraction of the rows contributes that
     * fraction (the latency/energy metric of Fig. 13).
     */
    double equivalentTrials = 0.0;

    void accumulate(const IvpStats &other);
};

/** One accepted evaluation point: the checkpoint of the ACA method. */
struct Checkpoint
{
    double t;    ///< time at the *start* of the step
    double dt;   ///< accepted stepsize taken from t
    Tensor state; ///< h(t)
};

/** Result of solving one integration layer. */
struct IvpResult
{
    Tensor yFinal;                       ///< h(T)
    std::vector<Checkpoint> checkpoints; ///< accepted points, first at t0
    IvpStats stats;
    std::vector<std::uint32_t> trialsPerPoint; ///< n_try at each point
    /** How the solve ended; yFinal is trustworthy only when Ok. */
    SolveStatus status = SolveStatus::Ok;
};

/**
 * Per-accepted-step abort check evaluated by the IVP driver. Returning
 * anything but Ok stops the solve immediately with that status, so a
 * request-level runtime deadline can abort a runaway integration
 * mid-flight instead of waiting for it to exhaust its budgets.
 */
class SolveGuard
{
  public:
    virtual ~SolveGuard() = default;

    /**
     * Called once after every accepted step with the solve's running
     * statistics (fEvals is kept current). Return Ok to continue.
     */
    virtual SolveStatus check(const IvpStats &stats) = 0;
};

/**
 * The serving runtime's guard: aborts with DeadlineExceeded when the
 * wall-clock deadline passes, the f-evaluation budget is spent, or an
 * external abort flag (the watchdog's) is raised.
 */
class DeadlineGuard : public SolveGuard
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Wall-clock completion target; max() = no deadline. */
    Clock::time_point deadline = Clock::time_point::max();

    /** f-evaluation budget (0 = unlimited) on the checked stats:
     *  through NodeModel's forwards, the whole pass's so far. */
    std::uint64_t maxFEvals = 0;

    /** External abort request (set by the serving watchdog); optional. */
    const std::atomic<bool> *abortFlag = nullptr;

    SolveStatus check(const IvpStats &stats) override;
};

/** Options for the adaptive solve. */
struct IvpOptions
{
    double tolerance = 1e-6;   ///< epsilon, the error tolerance
    double initialDt = 0.05;   ///< C, the predefined starting stepsize
    double minDt = 1e-9;       ///< below this a step is force-accepted
    std::uint32_t maxTrialsPerPoint = 60;
    std::uint64_t maxEvalPoints = 1u << 20;
    bool quantizeFp16 = false; ///< round accepted states through FP16
    /**
     * Record per-point diagnostics (checkpoints and trialsPerPoint).
     * Training needs the checkpoints — they are the states the ACA
     * backward pass replays — but inference-only serving does not, and
     * disabling them removes the state copy and vector growth per
     * accepted step (the allocation-free hot path).
     */
    bool recordCheckpoints = true;
};

/**
 * Evaluates one search trial and renders the accept/reject verdict.
 *
 * The default implementation computes the full step and compares
 * ||e||_2 against eps. PriorityTrialEvaluator (src/core/priority.h)
 * overrides this with the windowed early-stopping scan.
 */
class TrialEvaluator
{
  public:
    /** Outcome of one trial integration. */
    struct Trial
    {
        StepResult step;      ///< full step result (always fully computed
                              ///< numerically; hardware cost may be less)
        bool accepted;        ///< verdict used by the search
        double decisionNorm;  ///< the error norm the verdict was based on
        double workFraction;  ///< fraction of the feature map processed
    };

    virtual ~TrialEvaluator() = default;

    /** A new evaluation point begins (priority windows reset here). */
    virtual void pointStart() {}

    /**
     * Perform one trial at stepsize dt into a caller-owned Trial whose
     * step buffers are reused across trials (every field of `trial` is
     * overwritten; nothing from the previous trial is read).
     */
    virtual void evaluate(OdeFunction &f, const RkStepper &stepper,
                          double t, const Tensor &y, double dt, double eps,
                          const Tensor *k1_reuse, Trial &trial);
};

/**
 * One sample's stepsize search (Fig. 2(d)), walked by both solveIvp and
 * solveIvpBatched: every decision either driver makes about a trial is
 * made here, so a batched sample agrees with its solo solve bit for bit
 * by construction. It holds t, the stepsize to try (clamped to land on
 * t1), the trials at this point, whether FSAL is valid, and the forced
 * accepts by cause; the trial's tensors stay with the driver. The
 * controller, tableau and options must outlive the solve.
 */
class StepSearch
{
  public:
    StepSearch() = default;

    /** Begin a solve over [t0, t1]; resets the controller. */
    StepSearch(double t0, double t1, StepController &controller,
               const ButcherTableau &tableau, const IvpOptions &opts);

    /** The full evaluation's verdict: ||e||_2 finite and <= eps (a
     *  NaN/Inf norm rejects, so the retry re-evaluates f); always true
     *  without an estimator (fixed-step mode). */
    static bool withinTolerance(const ButcherTableau &tableau,
                                double err_norm, double eps);

    /** Begin the next evaluation point at the controller's initial
     *  dt. False when the solve is over: `status` is not Ok, t reached
     *  t1, or the point budget is spent (EvalBudgetExhausted). */
    bool nextPoint(const IvpStats &stats, SolveStatus &status);

    double t() const { return t_; }
    double dt() const { return dt_; }
    std::uint32_t trials() const { return trials_; } ///< at this point
    bool fsalValid() const { return fsalValid_; }

    /** Rule on the trial at dt() given its evaluator's verdict
     *  `within`, decided on `err_norm` over `work_fraction` of the map:
     *  count it in `stats`, force-accept at the minDt floor or the trial
     *  cap (warning, rate-limited), and tell the controller. Returns
     *  whether the step is taken; if not, dt() is the retry stepsize. */
    bool judge(bool within, double err_norm, double work_fraction,
               IvpStats &stats);

    /** Take the accepted step: swap `y_next` into `y` (FP16-rounded if
     *  asked), keep an FSAL tableau's last stage in `fsal`, advance t.
     *  Returns NonFinite for a NaN/Inf state, else `guard`'s verdict on
     *  `stats` (the caller keeps fEvals current), else Ok. */
    SolveStatus accept(Tensor &y, Tensor &y_next,
                       const std::vector<Tensor> &stages, Tensor &fsal,
                       IvpStats &stats, SolveGuard *guard);

    /** The dominance rule: an Ok solve whose steps were mostly forced
     *  reports the dominant cause, StepUnderflow or
     *  TrialBudgetExhausted. */
    SolveStatus finish(SolveStatus status, const IvpStats &stats) const;

  private:
    void propose(double dt) { dt_ = dt > t1_ - t_ ? t1_ - t_ : dt; }

    StepController *controller_ = nullptr;
    const ButcherTableau *tableau_ = nullptr;
    const IvpOptions *opts_ = nullptr;
    double t_ = 0.0, t1_ = 0.0, dt_ = 0.0;
    std::uint32_t trials_ = 0;
    bool fsalValid_ = false;
    std::uint64_t underflowForced_ = 0, trialBudgetForced_ = 0;
};

/**
 * Reusable state of the adaptive solve: the trial (with its RK stage
 * buffers), the walking state, and the FSAL stage. Pass the same
 * workspace to successive solveIvp calls on same-shaped problems and
 * the solver performs no heap allocation after the first solve; the
 * caller must not touch the members while a solve is running. NodeModel
 * holds one per model and threads it through every layer solve.
 */
struct IvpWorkspace
{
    TrialEvaluator::Trial trial;
    Tensor y;         ///< the walking state h(t)
    Tensor fsalStage; ///< last stage of the previous accepted step
};

/**
 * Solve one integration layer over [t0, t1].
 *
 * @param f Right-hand side (the embedded NN during NODE inference).
 * @param y0 Initial state h(t0).
 * @param tableau Integrator.
 * @param controller Stepsize-search policy (conventional or
 *        slope-adaptive).
 * @param opts Tolerances and limits.
 * @param evaluator Optional trial evaluator (null = full evaluation).
 * @param workspace Optional reusable solve state; pass the same one to
 *        successive solves to make the hot path allocation-free.
 * @param guard Optional per-accepted-step abort check (deadline /
 *        f-eval budget); a non-Ok verdict ends the solve with that
 *        status.
 */
IvpResult solveIvp(OdeFunction &f, const Tensor &y0, double t0, double t1,
                   const ButcherTableau &tableau, StepController &controller,
                   const IvpOptions &opts,
                   TrialEvaluator *evaluator = nullptr,
                   IvpWorkspace *workspace = nullptr,
                   SolveGuard *guard = nullptr);

} // namespace enode

#endif // ENODE_ODE_IVP_H
