#ifndef ENODE_ODE_BATCHED_IVP_H
#define ENODE_ODE_BATCHED_IVP_H

/**
 * @file
 * Batched adaptive IVP driver — one lockstep solve over many samples.
 *
 * The serving request queue (src/runtime/request_queue.h) coalesces
 * compatible requests; this driver integrates them together so every RK
 * trial performs ONE shared f evaluation across the batch (the serving
 * analogue of the paper's function-reuse ring, Sec. V, where f's
 * weights are held once and reused by every stage of every RK loop).
 *
 * Error control stays strictly per sample, in the spirit of ANODE's
 * per-sample accuracy discipline: each sample owns its controller, its
 * stats and SolveStatus, and a StepSearch, the search solveIvp walks,
 * and runs RkStepper's stageInput and combine, the halves stepInto is
 * built from; so it is bitwise identical to its solo solve by
 * construction. Only the f evaluations are shared: per stage, the
 * active samples' stage inputs are gathered into one (n, ...) tensor,
 * evaluated in a single batched call, and scattered back.
 *
 * Per-sample early exit: a sample that reaches t1 (or fails) leaves the
 * active set immediately, so one stiff sample cannot hold its
 * batchmates' step sizes hostage — the stragglers simply keep
 * integrating in ever-smaller shared evaluations. Samples at different
 * points of their stepsize search coexist: each round evaluates one
 * trial per active sample at that sample's own t and dt.
 *
 * Differences from the solo driver, by design (inference-only path):
 * no checkpoints/trialsPerPoint are recorded, no custom TrialEvaluator
 * (priority processing stays solo), and one solve.trial span per
 * lockstep round (arg `batch` = samples in the round) rather than per
 * sample trial.
 */

#include <vector>

#include "ode/butcher.h"
#include "ode/ivp.h"
#include "ode/step_control.h"
#include "tensor/tensor.h"

namespace enode {

/**
 * Right-hand side evaluated for a whole batch at once. `hs` stacks the
 * samples along a leading batch dimension (n, ...sample shape...) and
 * `ts` carries one evaluation time per sample (samples mid-search sit
 * at different times). Implementations resize `out` to hs.shape() and
 * must produce, for every sample row, bitwise the same floats as a solo
 * evaluation of that (t, h) pair. EmbeddedNetOde does so by
 * construction: its solo evaluation is a batch of one through the same
 * layer bodies (Layer::forwardBatched, EmbeddedNet::evalInto).
 */
class BatchedOdeFunction
{
  public:
    virtual ~BatchedOdeFunction() = default;

    virtual void evalInto(const std::vector<double> &ts, const Tensor &hs,
                          Tensor &out) = 0;
};

/** Per-sample outcome of a batched solve (all vectors sized n). */
struct BatchedIvpResult
{
    std::vector<Tensor> yFinal;      ///< h_i(t1); trustworthy only when Ok
    std::vector<IvpStats> stats;     ///< per-sample accounting
    std::vector<SolveStatus> status; ///< per-sample verdict
};

/**
 * Reusable state of the batched solve: one slot per sample, holding its
 * stepsize search beside its RK tensors, the round's index sets, and
 * the shared gather/scatter staging tensors. Pass the same workspace to
 * successive solves of same-shaped batches and a warm solve makes no
 * heap call beyond its result's three vectors. NodeModel holds one per
 * model replica.
 */
struct BatchedIvpWorkspace
{
    struct Slot
    {
        StepSearch search; ///< the sample's stepsize search
        Tensor y;          ///< walking state h_i(t)
        Tensor fsal;       ///< last stage of the previous accepted step
        Tensor yNext;      ///< trial next state
        Tensor errorState; ///< trial embedded error state
        Tensor stageInput; ///< y_j being assembled for the current stage
        std::vector<Tensor> stages; ///< k_1..k_s of the current trial
    };

    std::vector<Slot> slots;
    /** Samples still integrating, in sample order; a round tries each. */
    std::vector<std::size_t> active;
    /** The active samples whose current stage needs an f evaluation
     *  (the others reuse their FSAL stage). */
    std::vector<std::size_t> evaluated;
    Tensor packedIn;  ///< gathered stage inputs (m, ...)
    Tensor packedOut; ///< batched f output (m, ...)
    std::vector<double> packedTimes;
};

/**
 * Solve one integration layer over [t0, t1] for a batch of initial
 * states, sharing f evaluations across the batch while keeping error
 * control per sample.
 *
 * @param f Batched right-hand side.
 * @param y0 Initial states (all the same shape; none null).
 * @param tableau Integrator (shared across the batch).
 * @param controllers One stepsize controller per sample (none null);
 *        each is reset to opts.initialDt.
 * @param opts Tolerances and limits (shared across the batch).
 * @param workspace Optional reusable solve state.
 * @param guards Optional per-sample abort checks; when non-null, sized
 *        like y0 (individual entries may be null). A non-Ok verdict
 *        ends only that sample's solve.
 */
BatchedIvpResult
solveIvpBatched(BatchedOdeFunction &f, const std::vector<const Tensor *> &y0,
                double t0, double t1, const ButcherTableau &tableau,
                const std::vector<StepController *> &controllers,
                const IvpOptions &opts,
                BatchedIvpWorkspace *workspace = nullptr,
                const std::vector<SolveGuard *> *guards = nullptr);

} // namespace enode

#endif // ENODE_ODE_BATCHED_IVP_H
