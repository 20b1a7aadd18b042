#ifndef ENODE_ODE_RK_STEPPER_H
#define ENODE_ODE_RK_STEPPER_H

/**
 * @file
 * One explicit Runge-Kutta step (the paper's "integration trial").
 *
 * The stepper evaluates all stages k_1..k_s of a tableau, forms the next
 * state and (for embedded tableaus) the error state e of Fig. 2(c). The
 * stages are retained in the result because both depth-first training
 * (the k's are training states, Sec. IV.B) and the discrete ACA adjoint
 * need them.
 *
 * stepInto is its two per-sample halves, stageInput and combine, around
 * the f evaluations; the batched driver and the ACA local forward call
 * the halves directly, so all three run one arithmetic.
 */

#include <vector>

#include "ode/butcher.h"
#include "ode/ode_function.h"
#include "tensor/tensor.h"

namespace enode {

/** Everything produced by one RK step at one trial stepsize. */
struct StepResult
{
    Tensor yNext;                 ///< h(t + dt)
    Tensor errorState;            ///< e (empty if no embedded estimator)
    double errorNorm = 0.0;       ///< ||e||_2 (0 if no estimator)
    std::vector<Tensor> stages;   ///< k_1..k_s
    std::vector<Tensor> stageInputs; ///< y_1..y_s (inputs to f per stage)
    std::vector<double> stageTimes;  ///< t + c_j dt per stage
};

/** Executes single steps of a fixed tableau. */
class RkStepper
{
  public:
    explicit RkStepper(const ButcherTableau &tableau);

    /**
     * Take one full step.
     *
     * @param f Right-hand side.
     * @param t Current time.
     * @param y Current state.
     * @param dt Stepsize (may be negative for backward-in-time adjoint
     *        integration).
     * @param k1_reuse FSAL: pass the last stage of the previous accepted
     *        step to skip re-evaluating k1.
     */
    StepResult step(OdeFunction &f, double t, const Tensor &y, double dt,
                    const Tensor *k1_reuse = nullptr) const;

    /**
     * Take one full step into a caller-owned StepResult, reusing its
     * stage tensors, stage inputs, next state, and error state. After
     * the first call has sized the buffers (and the workspace pool has
     * warmed up), a step performs no heap allocation. `result` may be
     * the output of a previous step; `y` must not alias any tensor
     * inside it.
     */
    void stepInto(OdeFunction &f, double t, const Tensor &y, double dt,
                  const Tensor *k1_reuse, StepResult &result) const;

    /** First half of a step: stage input y_j = y + dt * sum_{l<j}
     *  a_jl k_l into `yj`, reading the stages k_l (l < j). */
    void stageInput(std::size_t j, const Tensor &y, double dt,
                    const std::vector<Tensor> &stages, Tensor &yj) const;

    /**
     * Second half, once every stage is in `stages`: y' = y + dt *
     * sum_j b_j k_j into `y_next` and, for an embedded tableau, e = dt *
     * sum_j d_j k_j into `error_state`. Returns ||e||_2 (0, with
     * `error_state` reset, without an estimator).
     */
    double combine(const Tensor &y, double dt,
                   const std::vector<Tensor> &stages, Tensor &y_next,
                   Tensor &error_state) const;

    const ButcherTableau &tableau() const { return tableau_; }

  private:
    const ButcherTableau &tableau_;
};

/**
 * Integrate with a fixed stepsize over [t0, t1] (used by ground-truth
 * generation and by fixed-grid baselines). Steps are shortened at the end
 * to land exactly on t1. Works for t1 < t0 (backward integration).
 *
 * @return The final state.
 */
Tensor integrateFixed(OdeFunction &f, const ButcherTableau &tableau,
                      const Tensor &y0, double t0, double t1, double dt);

} // namespace enode

#endif // ENODE_ODE_RK_STEPPER_H
