#ifndef ENODE_NN_ACTIVATION_H
#define ENODE_NN_ACTIVATION_H

/**
 * @file
 * Pointwise activation layers.
 *
 * ReLU is what the eNODE pre-/post-processing unit computes (Sec. VI);
 * Tanh is the smooth activation commonly used in the embedded network
 * of dynamic-system NODEs, where f must be Lipschitz and smooth for the
 * adaptive integrator to behave.
 */

#include "nn/layer.h"

namespace enode {

/** Rectified linear unit. */
class ReLU : public Layer
{
  public:
    void forwardBatched(const Tensor &xs, Tensor &out) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "ReLU"; }
    Shape outputShape(const Shape &input) const override { return input; }
};

/** Hyperbolic tangent; its backward reads the kept output, since
 *  tanh' = 1 - tanh^2. */
class Tanh : public Layer
{
  public:
    void forwardBatched(const Tensor &xs, Tensor &out) override;
    Tensor backward(const Tensor &grad_out) override;
    std::string name() const override { return "Tanh"; }
    Shape outputShape(const Shape &input) const override { return input; }
};

} // namespace enode

#endif // ENODE_NN_ACTIVATION_H
