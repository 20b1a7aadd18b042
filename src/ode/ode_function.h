#ifndef ENODE_ODE_ODE_FUNCTION_H
#define ENODE_ODE_ODE_FUNCTION_H

/**
 * @file
 * The right-hand side f(t, h) of Eq. (1).
 *
 * Implemented by the embedded neural network (NODE) and by analytic
 * dynamic systems (Three-Body, Lotka-Volterra) used as ground truth.
 */

#include <cstdint>

#include "tensor/tensor.h"

namespace enode {

/** Right-hand side of dh/dt = f(t, h). */
class OdeFunction
{
  public:
    virtual ~OdeFunction() = default;

    /** Evaluate the derivative at time t and state h. */
    virtual Tensor eval(double t, const Tensor &h) = 0;

    /**
     * Evaluate into a caller-owned tensor, reusing its storage. The
     * allocation-free entry point the RK stepper drives its stage
     * evaluations through. The default forwards to eval(); the
     * move-assignment recycles out's previous buffer through the
     * workspace pool, so even un-overridden implementations are
     * heap-free at steady state.
     */
    virtual void
    evalInto(double t, const Tensor &h, Tensor &out)
    {
        out = eval(t, h);
    }

    /** Total evaluations performed (complexity metering, Fig. 3). */
    std::uint64_t evalCount() const { return evalCount_; }

  protected:
    /** Subclasses call this once per eval. */
    void countEval() { evalCount_++; }

  private:
    std::uint64_t evalCount_ = 0;
};

/**
 * FP16-datapath wrapper: rounds both the state fed to the inner f and
 * the derivative it returns through half precision, modelling an
 * accelerator whose f evaluations run on a 16-bit datapath end to end
 * ("All designs use FP16 precision", Sec. VIII). Composable around any
 * OdeFunction.
 */
class Fp16Ode : public OdeFunction
{
  public:
    explicit Fp16Ode(OdeFunction &inner) : inner_(inner) {}

    Tensor
    eval(double t, const Tensor &h) override
    {
        Tensor d;
        evalInto(t, h, d);
        return d;
    }

    void
    evalInto(double t, const Tensor &h, Tensor &out) override
    {
        countEval();
        // Quantize into a reused scratch state rather than copying the
        // full state per evaluation: copyFrom keeps h16_'s buffer.
        h16_.copyFrom(h);
        h16_.quantizeFp16();
        inner_.evalInto(t, h16_, out);
        out.quantizeFp16();
    }

  private:
    OdeFunction &inner_;
    Tensor h16_; ///< reused FP16-rounded copy of the state
};

} // namespace enode

#endif // ENODE_ODE_ODE_FUNCTION_H
