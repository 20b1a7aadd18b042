#include "core/aca_trainer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace enode {

namespace {

/**
 * Discrete adjoint of one explicit RK step.
 *
 * Forward (per the tableau):
 *   y_j = h + dt * sum_{l<j} a_{jl} k_l,   k_j = f(t + c_j dt, y_j)
 *   h'  = h + dt * sum_j b_j k_j
 *
 * Given abar = dL/dh', the reverse sweep computes dL/dh and accumulates
 * dL/dtheta:
 *   kbar_j = dt b_j abar + dt sum_{m>j} a_{mj} ybar_m
 *   ybar_j = kbar_j^T df/dy_j           (VJP through f)
 *   dL/dh  = abar + sum_j ybar_j
 *
 * Stages whose kbar is structurally zero are skipped entirely, in the
 * local forward and in the reverse sweep. For the FSAL RK23 this skips
 * k4 — matching the paper's observation that "the backward pass only
 * computes the integral states k1, k2 and k3" (Sec. IV.B).
 *
 * Each VJP needs the layers to hold its stage's activations. The last
 * stage the local forward evaluates is the first one the reverse sweep
 * visits, so its VJP runs on the activations already there; every
 * other stage is re-evaluated first. An RK23 step therefore costs 3
 * local-forward evaluations, 2 re-evaluations and 3 VJPs.
 */
Tensor
adjointStep(EmbeddedNet &net, const ButcherTableau &tableau, double t,
            const Tensor &h, double dt, const Tensor &abar, AcaStats &stats,
            AcaWorkspace &ws)
{
    const std::size_t s = tableau.stages();
    const auto &a = tableau.a();
    const auto &b = tableau.b();
    const auto &c = tableau.c();

    // Structural zero test on tableau coefficients only: stage j
    // contributes nothing if b_j = 0 and no later stage reads k_j. A
    // stage that reads k_l makes l contribute, so the local forward
    // always has every k it combines.
    const auto contributes = [&](std::size_t j) {
        bool used = b[j] != 0.0;
        for (std::size_t m = j + 1; m < s && !used; m++)
            used = a[m][j] != 0.0;
        return used;
    };

    // Size the workspace once per tableau; subsequent steps reuse every
    // buffer (the Tensor assignments below recycle storage through the
    // thread-local pool instead of allocating).
    if (ws.stages.size() < s) {
        ws.stages.resize(s);
        ws.stageInputs.resize(s);
        ws.ybar.resize(s);
    }
    if (ws.ybarSet.size() < s)
        ws.ybarSet.resize(s);
    std::fill(ws.ybarSet.begin(), ws.ybarSet.end(), char{0});

    // 1) Local forward step: recover the training states (stage inputs)
    //    of the contributing stages. This is the "local forward step"
    //    of the ACA backward pass.
    std::size_t evaluated = s; // stage whose activations the layers hold
    for (std::size_t j = 0; j < s; j++) {
        if (!contributes(j))
            continue;
        Tensor &yj = ws.stageInputs[j];
        yj.copyFrom(h);
        for (std::size_t l = 0; l < j; l++) {
            if (a[j][l] != 0.0)
                yj.axpy(static_cast<float>(dt * a[j][l]), ws.stages[l]);
        }
        ws.stages[j] = net.eval(t + c[j] * dt, yj);
        stats.localForwardEvals++;
        evaluated = j;
    }

    // 2+3) Adjoint and parameter-gradient calculation, reverse stage
    //      order (the counter-clockwise loop around the ring, Fig. 7d).
    ws.hbar.copyFrom(abar);
    for (std::size_t j = s; j-- > 0;) {
        if (!contributes(j))
            continue;

        ws.kbar.copyFrom(abar);
        ws.kbar.scale(static_cast<float>(dt * b[j]));
        for (std::size_t m = j + 1; m < s; m++) {
            // The ybarSet flag, not emptiness, gates the read: the
            // persistent ws.ybar[m] may hold last step's adjoint.
            if (a[m][j] != 0.0 && ws.ybarSet[m])
                ws.kbar.axpy(static_cast<float>(dt * a[m][j]), ws.ybar[m]);
        }

        // Re-establish the layer caches at stage j unless they already
        // hold it, then pull the VJP. The re-evaluation models reading
        // the stored training states; it is not counted as algorithmic
        // forward work (the hardware reads the states from the training
        // state buffer instead).
        if (j != evaluated) {
            net.eval(t + c[j] * dt, ws.stageInputs[j]);
            evaluated = j;
        }
        ws.ybar[j] = net.vjp(ws.kbar);
        ws.ybarSet[j] = 1;
        stats.adjointVjps++;
        ws.hbar += ws.ybar[j];
    }
    // Hand the accumulated adjoint out by move; next step's copyFrom
    // re-acquires a pooled buffer, so no heap traffic in steady state.
    return std::move(ws.hbar);
}

AcaWorkspace &
threadWorkspace()
{
    thread_local AcaWorkspace ws;
    return ws;
}

} // namespace

AcaBackwardResult
acaBackwardLayer(EmbeddedNet &net, const ButcherTableau &tableau,
                 const IvpResult &fwd, const Tensor &grad_output,
                 AcaWorkspace *ws)
{
    AcaWorkspace &work = ws ? *ws : threadWorkspace();
    AcaBackwardResult result;
    Tensor abar = grad_output;
    // Checkpoints are ordered forward in time; walk them back (T -> 0).
    for (std::size_t i = fwd.checkpoints.size(); i-- > 0;) {
        const Checkpoint &ck = fwd.checkpoints[i];
        abar = adjointStep(net, tableau, ck.t, ck.state, ck.dt, abar,
                           result.stats, work);
        result.stats.backwardSteps++;
    }
    result.gradInput = std::move(abar);
    return result;
}

AcaBackwardResult
acaBackward(NodeModel &model, const ButcherTableau &tableau,
            const NodeForwardResult &fwd, const Tensor &grad_output,
            AcaWorkspace *ws)
{
    ENODE_ASSERT(fwd.layers.size() == model.numLayers(),
                 "forward record does not match the model");
    AcaBackwardResult total;
    Tensor abar = grad_output;
    for (std::size_t layer = model.numLayers(); layer-- > 0;) {
        auto layer_result = acaBackwardLayer(model.net(layer), tableau,
                                             fwd.layers[layer], abar, ws);
        abar = std::move(layer_result.gradInput);
        total.stats.accumulate(layer_result.stats);
    }
    total.gradInput = std::move(abar);
    return total;
}

TrainStepResult
classifierTrainStep(NodeClassifier &model, const Tensor &image,
                    std::size_t label, const ButcherTableau &tableau,
                    StepController &controller, const IvpOptions &opts,
                    TrialEvaluator *evaluator)
{
    TrainStepResult out;
    auto fwd = model.forward(image, tableau, controller, opts, evaluator);
    out.forwardStats = fwd.node.totalStats;
    out.forwardStatus = fwd.node.status;
    if (out.forwardStatus != SolveStatus::Ok)
        return out;

    auto loss = softmaxCrossEntropy(fwd.logits, label);
    out.loss = loss.value;
    out.correct = argmax(fwd.logits) == label;

    // Head backward (standard backprop), then ACA through the NODE, then
    // encoder backward.
    const Tensor grad_node_out = model.head().backward(loss.grad);
    auto aca = acaBackward(model.node(), tableau, fwd.node, grad_node_out);
    out.backwardStats = aca.stats;
    model.encoder().backward(aca.gradInput);
    return out;
}

TrainStepResult
regressionTrainStep(NodeModel &model, const Tensor &x0, const Tensor &target,
                    const ButcherTableau &tableau,
                    StepController &controller, const IvpOptions &opts,
                    TrialEvaluator *evaluator, AcaWorkspace *ws,
                    SolveGuard *guard)
{
    TrainStepResult out;
    auto fwd = model.forward(x0, tableau, controller, opts, evaluator, guard);
    out.forwardStats = fwd.totalStats;
    out.forwardStatus = fwd.status;
    if (out.forwardStatus != SolveStatus::Ok)
        return out;

    auto loss = mseLoss(fwd.output, target);
    out.loss = loss.value;

    auto aca = acaBackward(model, tableau, fwd, loss.grad, ws);
    out.backwardStats = aca.stats;
    return out;
}

} // namespace enode
