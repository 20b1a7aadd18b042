#ifndef ENODE_NN_SEQUENTIAL_H
#define ENODE_NN_SEQUENTIAL_H

/**
 * @file
 * Sequential layer container and the embedded network f(t, h, theta).
 *
 * EmbeddedNet is the "shallow NN" of Eq. (1): typically a ConcatTime
 * followed by a handful of conv (or linear) layers. Its forward is one f
 * evaluation — the unit of work the eNODE ring executes per loop
 * (Sec. V.A) — and its vjp() is one adjoint evaluation: the
 * vector-Jacobian products a^T df/dh and a^T df/dtheta that Eqs. (4)
 * and (5) integrate.
 *
 * Every evaluation runs the layers' one forward arithmetic, their
 * forwardBatched: evalBatched over the stack, evalInto over a batch of
 * one, and eval through each layer's training forward on a batch of
 * one, which also keeps the input and output pair vjp() reads. So a
 * batched row equals eval() on that sample bit for bit by construction.
 */

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace enode {

/**
 * Ordered stack of layers with chained forward/backward. forward()
 * chains the layers' training forwards, so each layer keeps the pair its
 * backward reads; forwardBatched() chains their batched bodies and keeps
 * nothing for backward.
 */
class Sequential : public Layer
{
  public:
    Sequential() = default;

    /** Append a layer; returns a reference for further configuration. */
    Layer &add(LayerPtr layer);

    std::size_t size() const { return layers_.size(); }
    Layer &layer(std::size_t i);

    Tensor forward(const Tensor &x) override;
    void forwardBatched(const Tensor &xs, Tensor &out) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<ParamSlot> paramSlots() override;
    std::string name() const override;
    Shape outputShape(const Shape &input) const override;

  private:
    std::vector<LayerPtr> layers_;
    /**
     * forwardBatched's activations, one per inner layer boundary
     * (acts_[i] is layer i's output), kept across calls: at a steady
     * batch size a batched f evaluation takes no storage from the
     * Workspace pool.
     */
    std::vector<Tensor> acts_;
};

/**
 * The embedded network f(t, h, theta).
 *
 * Owns a Sequential body whose first layer is a ConcatTime, so the scalar
 * time reaches the network as an input feature. Exposes the two
 * operations NODE training needs:
 *  - eval(t, h): one forward evaluation of f.
 *  - vjp(a): given the adjoint of the *most recent* eval, return
 *    a^T df/dh and accumulate a^T df/dtheta into the parameter grads.
 * and the two the forward solves run, which keep nothing for vjp():
 * evalInto(t, h, out) on one state and evalBatched over a stack.
 */
class EmbeddedNet
{
  public:
    /** Wrap a body; the body must map the state shape to itself. */
    explicit EmbeddedNet(std::unique_ptr<Sequential> body);

    /**
     * Build the standard convolutional f used throughout the paper:
     * ConcatTime -> [Conv3x3 -> GroupNorm -> ReLU] x depth, mapping
     * (channels, H, W) to itself.
     *
     * @param channels State channel count.
     * @param depth Number of conv layers (the paper's f has 4).
     * @param rng Weight initializer.
     */
    static std::unique_ptr<EmbeddedNet> makeConvNet(std::size_t channels,
                                                    std::size_t depth,
                                                    Rng &rng);

    /**
     * Build a row-streamable conv f: ConcatTime -> [Conv3x3 -> ReLU] x
     * (depth-1) -> Conv3x3. No normalization layers, so every operation
     * has a bounded row footprint — the form the depth-first streaming
     * executor (src/core/depth_first.h) can run with line buffers only.
     */
    static std::unique_ptr<EmbeddedNet> makeStreamableConvNet(
        std::size_t channels, std::size_t depth, Rng &rng);

    /**
     * Build an MLP f for low-dimensional dynamic systems:
     * ConcatTime -> Linear -> Tanh -> ... -> Linear, mapping (dim) to
     * itself.
     *
     * @param dim State dimension.
     * @param hidden Hidden width.
     * @param depth Number of hidden layers (>= 1).
     * @param rng Weight initializer.
     */
    static std::unique_ptr<EmbeddedNet> makeMlp(std::size_t dim,
                                                std::size_t hidden,
                                                std::size_t depth, Rng &rng);

    /** One evaluation of f at time t and state h, keeping what vjp()
     *  reads (the training forward ACA's local forward runs). */
    Tensor eval(double t, const Tensor &h);

    /**
     * One shared evaluation of f over a stacked batch of states, each
     * at its own time (ts.size() == hs.dim(0)). Each sample row of
     * `out` is bitwise identical to eval(ts[i], hs[i]), since both run
     * the same layer bodies. Keeps nothing for vjp(). Counts as
     * ts.size() evaluations.
     */
    void evalBatched(const std::vector<double> &ts, const Tensor &hs,
                     Tensor &out);

    /**
     * One evaluation of f at time t and state h into `out`: evalBatched
     * on h staged as a batch of one, so bitwise eval(t, h), keeping
     * nothing for vjp(). The net keeps the staging, so a warm call takes
     * no Workspace storage and makes no heap call.
     */
    void evalInto(double t, const Tensor &h, Tensor &out);

    /**
     * Vector-Jacobian products of the most recent eval().
     *
     * @param adjoint a, the gradient seed at the output of f.
     * @return a^T df/dh; a^T df/dtheta accumulates into the grad slots.
     */
    Tensor vjp(const Tensor &adjoint);

    /** Parameters and gradient accumulators of the body. */
    std::vector<ParamSlot> paramSlots() { return body_->paramSlots(); }

    void zeroGrad() { body_->zeroGrad(); }

    std::size_t paramCount() { return body_->paramCount(); }

    /** Number of evaluations since construction (complexity metering). */
    std::uint64_t evalCount() const { return evalCount_; }
    /** Number of vjp calls since construction. */
    std::uint64_t vjpCount() const { return vjpCount_; }
    void resetCounters() { evalCount_ = 0; vjpCount_ = 0; }

    Sequential &body() { return *body_; }

  private:
    std::unique_ptr<Sequential> body_;
    class ConcatTime *timeLayer_; // owned by body_, first layer
    std::uint64_t evalCount_ = 0;
    std::uint64_t vjpCount_ = 0;
    std::vector<double> oneTime_; ///< evalInto's time, a batch of one
    Tensor oneState_;             ///< evalInto's state, a batch of one
};

} // namespace enode

#endif // ENODE_NN_SEQUENTIAL_H
