#ifndef ENODE_NN_LAYER_H
#define ENODE_NN_LAYER_H

/**
 * @file
 * Layer interface for the embedded network f and the surrounding model.
 *
 * Each layer writes its forward arithmetic once, as forwardBatched over
 * a stack of samples; serving's shared f evaluations run it directly,
 * and the training forward runs it on a batch of one. So every sample
 * row of a batched forward equals forward() on that sample bit for bit
 * by construction.
 *
 * NODE training (the ACA method, Sec. II.C) interleaves short forward
 * evaluations with immediate backward (vector-Jacobian) evaluations, so
 * forward() keeps the input and output of the most recent call for
 * backward(). Parameter gradients accumulate across backward calls until
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

    /**
     * Training forward: runs forwardBatched() on x as a batch of one and
     * keeps that input and output, the pair backward() reads. Virtual
     * only so that Sequential can chain its layers' own forwards.
     */
    virtual Tensor forward(const Tensor &x);

    /**
     * The layer's forward arithmetic: `xs` stacks samples along a
     * leading batch dimension (n, ...sample shape...) and `out` is
     * resized to (n, ...output shape...). Serving's shared f
     * evaluations (ode/batched_ivp.h) call it directly; it keeps nothing
     * for backward().
     *
     * Each sample's row depends on that sample alone: batching may only
     * restructure the computation across samples, never reorder the
     * arithmetic within one. forward() runs this same body, so every
     * row is bitwise identical to forward() on that sample. `out` must
     * not alias `xs`.
     *
     * It reads the parameters as they are at the call. A layer that
     * keeps a copy of a parameter in the layout its kernel reads
     * (Linear's column panels) rebuilds it when the parameter's
     * Tensor::writeVersion() has moved, so writers need not tell it.
     */
    virtual void forwardBatched(const Tensor &xs, Tensor &out) = 0;

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

  protected:
    /** The input of the most recent forward(), in the sample's shape. */
    const Tensor &forwardInput() const;
    /** The output of the most recent forward(), in the sample's shape. */
    const Tensor &forwardOutput() const;

  private:
    Tensor input_;
    Tensor output_;
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace enode

#endif // ENODE_NN_LAYER_H
