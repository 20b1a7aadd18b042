#include "ode/rk_stepper.h"

#include <cmath>

#include "common/logging.h"

namespace enode {

namespace {

/** acc += dt * w_l k_l for l < count, in order, skipping zero weights. */
void
addStages(Tensor &acc, double dt, const std::vector<double> &w,
          std::size_t count, const std::vector<Tensor> &stages)
{
    for (std::size_t l = 0; l < count; l++) {
        if (w[l] != 0.0)
            acc.axpy(static_cast<float>(dt * w[l]), stages[l]);
    }
}

} // namespace

RkStepper::RkStepper(const ButcherTableau &tableau) : tableau_(tableau) {}

StepResult
RkStepper::step(OdeFunction &f, double t, const Tensor &y, double dt,
                const Tensor *k1_reuse) const
{
    StepResult result;
    stepInto(f, t, y, dt, k1_reuse, result);
    return result;
}

void
RkStepper::stepInto(OdeFunction &f, double t, const Tensor &y, double dt,
                    const Tensor *k1_reuse, StepResult &result) const
{
    ENODE_ASSERT(dt != 0.0, "zero stepsize");
    const std::size_t s = tableau_.stages();
    const auto &c = tableau_.c();

    // Shrink-or-grow to s entries; the Tensor elements that survive keep
    // their buffers and are refilled below via copyFrom/evalInto.
    result.stages.resize(s);
    result.stageInputs.resize(s);
    result.stageTimes.resize(s);

    for (std::size_t j = 0; j < s; j++) {
        stageInput(j, y, dt, result.stages, result.stageInputs[j]);
        result.stageTimes[j] = t + c[j] * dt;
        if (j == 0 && k1_reuse != nullptr) {
            // FSAL reuse: k1 equals the last stage of the previous
            // accepted step, saving one f evaluation.
            result.stages[0].copyFrom(*k1_reuse);
        } else {
            f.evalInto(result.stageTimes[j], result.stageInputs[j],
                       result.stages[j]);
        }
    }
    result.errorNorm =
        combine(y, dt, result.stages, result.yNext, result.errorState);
}

void
RkStepper::stageInput(std::size_t j, const Tensor &y, double dt,
                      const std::vector<Tensor> &stages, Tensor &yj) const
{
    // The partial states p_{j,l} of the depth-first formulation, fully
    // accumulated (Fig. 6a).
    yj.copyFrom(y);
    addStages(yj, dt, tableau_.a()[j], j, stages);
}

double
RkStepper::combine(const Tensor &y, double dt,
                   const std::vector<Tensor> &stages, Tensor &y_next,
                   Tensor &error_state) const
{
    const std::size_t s = tableau_.stages();
    y_next.copyFrom(y);
    addStages(y_next, dt, tableau_.b(), s, stages);
    if (!tableau_.hasEmbedded()) {
        error_state.reset();
        return 0.0;
    }
    // e = dt * sum_j (b_j - b*_j) k_j, accumulated from the partial
    // error states e_i as each k_j becomes available (Fig. 6a).
    error_state.resize(y.shape());
    error_state.fill(0.0f);
    addStages(error_state, dt, tableau_.errorWeights(), s, stages);
    return error_state.l2Norm();
}

Tensor
integrateFixed(OdeFunction &f, const ButcherTableau &tableau,
               const Tensor &y0, double t0, double t1, double dt)
{
    ENODE_ASSERT(dt > 0.0, "integrateFixed needs dt > 0");
    RkStepper stepper(tableau);
    const double direction = t1 >= t0 ? 1.0 : -1.0;
    Tensor y = y0;
    double t = t0;
    StepResult r;
    while (direction * (t1 - t) > 1e-12) {
        const double step_dt =
            direction * std::min(dt, direction * (t1 - t));
        stepper.stepInto(f, t, y, step_dt, nullptr, r);
        // Move-assignment swaps buffers: r.yNext inherits the old state
        // storage and reuses it on the next iteration.
        y = std::move(r.yNext);
        t += step_dt;
    }
    return y;
}

} // namespace enode
