#ifndef ENODE_NN_LAYER_H
#define ENODE_NN_LAYER_H

/**
 * @file
 * Layer interface for the embedded network f and the surrounding model.
 *
 * NODE training (the ACA method, Sec. II.C) interleaves short forward
 * evaluations with immediate backward (vector-Jacobian) evaluations, so a
 * layer caches exactly what its backward needs from the most recent
 * forward. Parameter gradients accumulate across backward calls until
 * zeroGrad(), because the parameter-gradient integral of Eq. (5) sums
 * VJP contributions over many integration steps.
 */

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace enode {

/** A named (parameter, gradient) pair exposed by a layer. */
struct ParamSlot
{
    std::string name;
    Tensor *param;
    Tensor *grad;
};

/** Differentiable layer with single-input single-output dataflow. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Compute the output and cache whatever backward() will need. */
    virtual Tensor forward(const Tensor &x) = 0;

    /**
     * Batched forward: `xs` stacks samples along a leading batch
     * dimension (n, ...sample shape...) and `out` is resized to
     * (n, ...output shape...). Used by the serving batcher's shared
     * f evaluations (ode/batched_ivp.h); it is an inference-only path
     * and does NOT populate the backward caches.
     *
     * Contract: every sample row of `out` must be bitwise identical to
     * forward() on that sample — batching may only restructure the
     * computation across samples, never reorder arithmetic within one.
     * The default implementation slices, runs forward() per sample, and
     * scatters; layers with a profitable batched kernel override it.
     * `out` must not alias `xs`.
     *
     * Both forwards read the parameters as they are at the call. A
     * layer that keeps a copy of a parameter in the layout its kernel
     * reads (Linear's column panels) rebuilds it when the parameter's
     * Tensor::writeVersion() has moved, so writers need not tell it.
     */
    virtual void forwardBatched(const Tensor &xs, Tensor &out);

    /**
     * Vector-Jacobian product of the most recent forward.
     *
     * @param grad_out Gradient of the loss w.r.t. this layer's output.
     * @return Gradient of the loss w.r.t. this layer's input. Parameter
     *         gradients are accumulated into the layer's grad slots.
     */
    virtual Tensor backward(const Tensor &grad_out) = 0;

    /** Parameters and their gradient accumulators (may be empty). */
    virtual std::vector<ParamSlot> paramSlots() { return {}; }

    /** Reset accumulated parameter gradients to zero. */
    void zeroGrad();

    /** Total number of scalar parameters. */
    std::size_t paramCount();

    /** Short human-readable layer description. */
    virtual std::string name() const = 0;

    /** Shape of the output this layer produces for a given input shape. */
    virtual Shape outputShape(const Shape &input) const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace enode

#endif // ENODE_NN_LAYER_H
