#ifndef ENODE_ODE_BUTCHER_H
#define ENODE_ODE_BUTCHER_H

/**
 * @file
 * Butcher tableaus for explicit Runge-Kutta integrators.
 *
 * A tableau fully describes an explicit RK method:
 *
 *   k_j = f(t + c_j dt, y + dt * sum_{l<j} a_{jl} k_l)
 *   y'  = y + dt * sum_j b_j k_j
 *   e   = dt * sum_j (b_j - b*_j) k_j     (embedded error estimate)
 *
 * The paper's running example is RK23 (Bogacki-Shampine 3(2), the k1..k4
 * integrator of Fig. 2). The depth-first integration of Sec. IV is
 * derived *from the tableau* — the data-dependency graph, partial-state
 * factoring and buffer lifetimes in src/core/depth_first.h all consume
 * this structure, so any integrator added here is automatically supported
 * by the architecture model ("It supports various types of integrators
 * and different orders", Sec. V.B).
 */

#include <string>
#include <vector>

namespace enode {

/** Coefficients of an explicit (embedded) Runge-Kutta method. */
class ButcherTableau
{
  public:
    /** Number of stages s (f evaluations per step, ignoring FSAL reuse). */
    std::size_t stages() const { return b_.size(); }

    /** Order of the propagated solution. */
    int order() const { return order_; }

    /** True if the tableau carries an embedded error estimator. */
    bool hasEmbedded() const { return !bErr_.empty(); }

    /**
     * True for first-same-as-last methods: the final stage of an accepted
     * step equals k1 of the next step, saving one f evaluation per
     * accepted step (function reuse at the algorithm level).
     */
    bool fsal() const { return fsal_; }

    const std::string &name() const { return name_; }
    const std::vector<double> &c() const { return c_; }
    const std::vector<std::vector<double>> &a() const { return a_; }
    const std::vector<double> &b() const { return b_; }
    /** Embedded lower-order weights b*; empty when !hasEmbedded(). */
    const std::vector<double> &bErr() const { return bErr_; }

    /**
     * d_j = b_j - b*_j, the error-state weights (e in Fig. 2c). Computed
     * once at construction: the solvers read them on every trial.
     */
    const std::vector<double> &errorWeights() const;

    /** Forward Euler (the ResNet residual block, Fig. 1a). */
    static const ButcherTableau &euler();
    /** Explicit midpoint, order 2. */
    static const ButcherTableau &midpoint();
    /** Heun-Euler 2(1), the smallest embedded pair. */
    static const ButcherTableau &heun21();
    /** Bogacki-Shampine 3(2) "RK23", the paper's running example. */
    static const ButcherTableau &rk23();
    /** Classic RK4 (no embedded estimate). */
    static const ButcherTableau &rk4();
    /** Fehlberg 4(5) "RKF45". */
    static const ButcherTableau &rkf45();
    /** Dormand-Prince 5(4) "Dopri5". */
    static const ButcherTableau &dopri5();

    /** Lookup by name ("euler", "midpoint", "rk23", ...); fatal if unknown. */
    static const ButcherTableau &byName(const std::string &name);

    /** All registered names, for sweeps over integrators (Fig. 14). */
    static std::vector<std::string> names();

    ButcherTableau(std::string name, int order, std::vector<double> c,
                   std::vector<std::vector<double>> a, std::vector<double> b,
                   std::vector<double> b_err, bool fsal);

  private:
    void validate() const;

    std::string name_;
    int order_;
    std::vector<double> c_;
    std::vector<std::vector<double>> a_;
    std::vector<double> b_;
    std::vector<double> bErr_;
    std::vector<double> errorWeights_; // b - bErr; empty when !hasEmbedded()
    bool fsal_;
};

} // namespace enode

#endif // ENODE_ODE_BUTCHER_H
