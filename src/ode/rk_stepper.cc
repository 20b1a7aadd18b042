#include "ode/rk_stepper.h"

#include <cmath>

#include "common/logging.h"

namespace enode {

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
    const auto &a = tableau_.a();
    const auto &b = tableau_.b();
    const auto &c = tableau_.c();

    // Shrink-or-grow to s entries; the Tensor elements that survive keep
    // their buffers and are refilled below via copyFrom/evalInto.
    result.stages.resize(s);
    result.stageInputs.resize(s);
    result.stageTimes.resize(s);

    for (std::size_t j = 0; j < s; j++) {
        // Stage input y_j = y + dt * sum_{l<j} a_{jl} k_l. These are the
        // partial states p_{j,l} of the depth-first formulation, fully
        // accumulated (Fig. 6a).
        Tensor &yj = result.stageInputs[j];
        yj.copyFrom(y);
        for (std::size_t l = 0; l < j; l++) {
            if (a[j][l] != 0.0)
                yj.axpy(static_cast<float>(dt * a[j][l]), result.stages[l]);
        }
        const double tj = t + c[j] * dt;
        if (j == 0 && k1_reuse != nullptr) {
            // FSAL reuse: k1 equals the last stage of the previous
            // accepted step, saving one f evaluation.
            result.stages[0].copyFrom(*k1_reuse);
        } else {
            f.evalInto(tj, yj, result.stages[j]);
        }
        result.stageTimes[j] = tj;
    }

    // y' = y + dt * sum_j b_j k_j.
    result.yNext.copyFrom(y);
    for (std::size_t j = 0; j < s; j++) {
        if (b[j] != 0.0)
            result.yNext.axpy(static_cast<float>(dt * b[j]),
                              result.stages[j]);
    }

    if (tableau_.hasEmbedded()) {
        // e = dt * sum_j (b_j - b*_j) k_j, accumulated from the partial
        // error states e_i as each k_j becomes available (Fig. 6a).
        const auto &d = tableau_.errorWeights();
        Tensor &e = result.errorState;
        e.resize(y.shape());
        e.fill(0.0f);
        for (std::size_t j = 0; j < s; j++) {
            if (d[j] != 0.0)
                e.axpy(static_cast<float>(dt * d[j]), result.stages[j]);
        }
        result.errorNorm = e.l2Norm();
    } else {
        result.errorState.reset();
        result.errorNorm = 0.0;
    }
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
