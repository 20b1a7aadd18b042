#ifndef ENODE_CORE_ACA_TRAINER_H
#define ENODE_CORE_ACA_TRAINER_H

/**
 * @file
 * NODE training with the adaptive-checkpoint-adjoint (ACA) method.
 *
 * The backward pass (Sec. II.C) repeats, per accepted forward step
 * (checkpoint interval [t_i, t_{i+1}]), working backward from T to 0:
 *
 *  1. Local forward step: re-integrate from the checkpoint h(t_i) with
 *     the *recorded* stepsize to recover the intermediate training
 *     states (integral states k_j and the per-conv-layer activations).
 *  2. Adjoint calculation: propagate a(t) backward across the step by
 *     vector-Jacobian products through the integrator's compute graph
 *     (the discrete form of Eq. 4 — exactly what ACA does, since it
 *     backprops through the accepted solver steps).
 *  3. Parameter gradients: the same VJPs accumulate a^T df/dtheta,
 *     the discrete form of the integral in Eq. 5.
 *
 * Because the backward pass reuses the stepsizes accepted by the forward
 * search, it needs no stepsize search of its own — its complexity is
 * O(N * n_eval * s) (Fig. 3).
 */

#include <cstdint>
#include <vector>

#include "core/node_model.h"

namespace enode {

/**
 * Persistent buffers for the ACA backward hot path.
 *
 * One adjoint step re-creates stage states, stage inputs and stage
 * adjoints; without reuse every checkpoint interval pays three
 * vector-of-Tensor heap allocations plus fresh temporaries. The
 * workspace keeps them alive across steps (and across training
 * iterations), so after one warm-up pass the backward runs entirely on
 * recycled Tensor-pool buffers — the same zero-steady-state-allocation
 * discipline the forward solver adopted in PR 2.
 *
 * Not thread-safe; use one workspace per thread. Passing nullptr to the
 * trainer entry points selects a thread-local instance, which is what
 * the serving runtime's training tasks use.
 */
struct AcaWorkspace
{
    std::vector<Tensor> stages;      ///< k_j, recovered per local forward
    std::vector<Tensor> stageInputs; ///< y_j, the recorded training states
    std::vector<Tensor> ybar;        ///< per-stage adjoints
    /** Explicit "ybar[j] was computed this step" flags; persistent
     *  tensors would otherwise read stale values from the last step. */
    std::vector<char> ybarSet;
    Tensor kbar; ///< stage adjoint seed accumulator
    Tensor hbar; ///< running dL/dh across the step
};

/** Accounting for one backward pass (complexity metering, Fig. 3). */
struct AcaStats
{
    std::uint64_t backwardSteps = 0;  ///< checkpoint intervals processed
    std::uint64_t localForwardEvals = 0; ///< f evals in local forward steps
    std::uint64_t adjointVjps = 0;    ///< VJP evaluations (Eq. 4/5 work)

    void
    accumulate(const AcaStats &other)
    {
        backwardSteps += other.backwardSteps;
        localForwardEvals += other.localForwardEvals;
        adjointVjps += other.adjointVjps;
    }
};

/** Result of back-propagating one integration layer. */
struct AcaBackwardResult
{
    Tensor gradInput; ///< dL/dh(0) of this layer (the adjoint at t = 0)
    AcaStats stats;
    /** Ok, or the guard's verdict when it stopped the pass before a
     *  step; the gradients are then partial and must not be used. */
    SolveStatus status = SolveStatus::Ok;
};

/**
 * Backward pass over one integration layer.
 *
 * @param net The layer's embedded network; parameter gradients accumulate
 *        into its slots.
 * @param tableau The integrator used in the forward pass.
 * @param fwd The layer's forward IvpResult (checkpoints + stepsizes).
 * @param grad_output a(T) = dL/dh(T), the adjoint seed (Eq. 4).
 * @param ws Reusable buffers; nullptr selects a thread-local workspace.
 * @param guard Optional; checked before every backward step with the
 *        layer's progress (evalPoints = steps done, fEvals = local
 *        forward evaluations). A non-Ok verdict stops the pass there
 *        and becomes the result's status.
 */
AcaBackwardResult acaBackwardLayer(EmbeddedNet &net,
                                   const ButcherTableau &tableau,
                                   const IvpResult &fwd,
                                   const Tensor &grad_output,
                                   AcaWorkspace *ws = nullptr,
                                   SolveGuard *guard = nullptr);

/**
 * Backward pass over a full NodeModel: layers are processed last-first,
 * chaining the adjoint between them. The guard is checked before every
 * backward step of every layer, as in acaBackwardLayer.
 *
 * @return dL/d(input of the first layer), for chaining into an encoder.
 */
AcaBackwardResult acaBackward(NodeModel &model, const ButcherTableau &tableau,
                              const NodeForwardResult &fwd,
                              const Tensor &grad_output,
                              AcaWorkspace *ws = nullptr,
                              SolveGuard *guard = nullptr);

/** One full training iteration of a NodeClassifier on a single image. */
struct TrainStepResult
{
    double loss = 0.0;
    bool correct = false;
    /** Forward solve outcome; when non-Ok the backward pass was skipped
     *  and no gradients were accumulated for this step. */
    SolveStatus forwardStatus = SolveStatus::Ok;
    /** Backward outcome; non-Ok when the guard stopped the backward,
     *  leaving the gradients partial. */
    SolveStatus backwardStatus = SolveStatus::Ok;
    IvpStats forwardStats;
    AcaStats backwardStats;
};

/**
 * Forward + loss + full backward for one labelled image. Gradients
 * accumulate into the classifier's parameter slots; the caller owns the
 * optimizer step.
 */
TrainStepResult classifierTrainStep(NodeClassifier &model,
                                    const Tensor &image, std::size_t label,
                                    const ButcherTableau &tableau,
                                    StepController &controller,
                                    const IvpOptions &opts,
                                    TrialEvaluator *evaluator = nullptr);

/**
 * One regression training step: MSE between h(T) and a target state.
 * The optional guard runs after every accepted forward step and before
 * every backward step (the serving runtime aborts wedged training
 * tasks, and yields them to queued inference, through it). When the
 * forward comes back non-Ok the step reports forwardStatus and returns
 * without touching the gradients; when the guard stops the backward
 * the step reports backwardStatus and the gradients are partial.
 */
TrainStepResult regressionTrainStep(NodeModel &model, const Tensor &x0,
                                    const Tensor &target,
                                    const ButcherTableau &tableau,
                                    StepController &controller,
                                    const IvpOptions &opts,
                                    TrialEvaluator *evaluator = nullptr,
                                    AcaWorkspace *ws = nullptr,
                                    SolveGuard *guard = nullptr);

} // namespace enode

#endif // ENODE_CORE_ACA_TRAINER_H
