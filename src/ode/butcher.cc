#include "ode/butcher.h"

#include <cmath>

#include "common/logging.h"

namespace enode {

ButcherTableau::ButcherTableau(std::string name, int order,
                               std::vector<double> c,
                               std::vector<std::vector<double>> a,
                               std::vector<double> b,
                               std::vector<double> b_err, bool fsal)
    : name_(std::move(name)),
      order_(order),
      c_(std::move(c)),
      a_(std::move(a)),
      b_(std::move(b)),
      bErr_(std::move(b_err)),
      fsal_(fsal)
{
    validate();
    if (hasEmbedded()) {
        errorWeights_.resize(b_.size());
        for (std::size_t j = 0; j < b_.size(); j++)
            errorWeights_[j] = b_[j] - bErr_[j];
    }
}

void
ButcherTableau::validate() const
{
    const std::size_t s = b_.size();
    ENODE_ASSERT(s > 0, "empty tableau");
    ENODE_ASSERT(c_.size() == s, "c size mismatch in ", name_);
    ENODE_ASSERT(a_.size() == s, "a rows mismatch in ", name_);
    for (std::size_t j = 0; j < s; j++) {
        ENODE_ASSERT(a_[j].size() == j,
                     "a must be strictly lower triangular in ", name_);
        // Row-sum consistency: c_j = sum_l a_{jl} for a consistent method.
        double row = 0.0;
        for (double v : a_[j])
            row += v;
        ENODE_ASSERT(std::abs(row - c_[j]) < 1e-12,
                     "row-sum condition violated at stage ", j, " of ",
                     name_);
    }
    ENODE_ASSERT(bErr_.empty() || bErr_.size() == s,
                 "bErr size mismatch in ", name_);
    // Consistency: weights sum to one.
    double sb = 0.0;
    for (double v : b_)
        sb += v;
    ENODE_ASSERT(std::abs(sb - 1.0) < 1e-12, "b must sum to 1 in ", name_);
    if (!bErr_.empty()) {
        double sbe = 0.0;
        for (double v : bErr_)
            sbe += v;
        ENODE_ASSERT(std::abs(sbe - 1.0) < 1e-12,
                     "bErr must sum to 1 in ", name_);
    }
}

const std::vector<double> &
ButcherTableau::errorWeights() const
{
    ENODE_ASSERT(hasEmbedded(), "no embedded estimator in ", name_);
    return errorWeights_;
}

const ButcherTableau &
ButcherTableau::euler()
{
    static const ButcherTableau tab("euler", 1, {0.0}, {{}}, {1.0}, {},
                                    false);
    return tab;
}

const ButcherTableau &
ButcherTableau::midpoint()
{
    static const ButcherTableau tab("midpoint", 2, {0.0, 0.5}, {{}, {0.5}},
                                    {0.0, 1.0}, {}, false);
    return tab;
}

const ButcherTableau &
ButcherTableau::heun21()
{
    static const ButcherTableau tab("heun21", 2, {0.0, 1.0}, {{}, {1.0}},
                                    {0.5, 0.5}, {1.0, 0.0}, false);
    return tab;
}

const ButcherTableau &
ButcherTableau::rk23()
{
    // Bogacki-Shampine 3(2): the paper's RK23 with states k1..k4
    // (Fig. 2(c)). FSAL: k4 of an accepted step is k1 of the next.
    static const ButcherTableau tab(
        "rk23", 3, {0.0, 0.5, 0.75, 1.0},
        {{}, {0.5}, {0.0, 0.75}, {2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0}},
        {2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0, 0.0},
        {7.0 / 24.0, 0.25, 1.0 / 3.0, 0.125}, true);
    return tab;
}

const ButcherTableau &
ButcherTableau::rk4()
{
    static const ButcherTableau tab(
        "rk4", 4, {0.0, 0.5, 0.5, 1.0},
        {{}, {0.5}, {0.0, 0.5}, {0.0, 0.0, 1.0}},
        {1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0}, {}, false);
    return tab;
}

const ButcherTableau &
ButcherTableau::rkf45()
{
    static const ButcherTableau tab(
        "rkf45", 5, {0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5},
        {{},
         {0.25},
         {3.0 / 32.0, 9.0 / 32.0},
         {1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0},
         {439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0},
         {-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0,
          -11.0 / 40.0}},
        {16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0,
         2.0 / 55.0},
        {25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0},
        false);
    return tab;
}

const ButcherTableau &
ButcherTableau::dopri5()
{
    static const ButcherTableau tab(
        "dopri5", 5, {0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0},
        {{},
         {0.2},
         {3.0 / 40.0, 9.0 / 40.0},
         {44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0},
         {19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0,
          -212.0 / 729.0},
         {9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
          -5103.0 / 18656.0},
         {35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
          11.0 / 84.0}},
        {35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
         11.0 / 84.0, 0.0},
        {5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
         -92097.0 / 339200.0, 187.0 / 2100.0, 0.025},
        true);
    return tab;
}

const ButcherTableau &
ButcherTableau::byName(const std::string &name)
{
    if (name == "euler")
        return euler();
    if (name == "midpoint")
        return midpoint();
    if (name == "heun21")
        return heun21();
    if (name == "rk23")
        return rk23();
    if (name == "rk4")
        return rk4();
    if (name == "rkf45")
        return rkf45();
    if (name == "dopri5")
        return dopri5();
    ENODE_FATAL("unknown integrator '", name, "'");
}

std::vector<std::string>
ButcherTableau::names()
{
    return {"euler", "midpoint", "heun21", "rk23", "rk4", "rkf45", "dopri5"};
}

} // namespace enode
