#ifndef ENODE_NN_CONV2D_H
#define ENODE_NN_CONV2D_H

/**
 * @file
 * 3x3 same-padding convolution with full forward/backward support.
 *
 * This is the layer the eNODE NN core accelerates (Sec. VI). Three
 * computations share the PE array in hardware and are exposed here as
 * separate free functions so both the reference model and the
 * cycle-accurate simulator can call them:
 *
 *  - forward convolution              (inference / forward pass)
 *  - backward-data convolution        (adjoint; flipped kernels with the
 *                                      roles of C and M swapped, Fig. 9c)
 *  - backward-weights computation     (dL/dW from input x and grad_out)
 *
 * The Conv2d Layer wraps the three into the Layer interface with
 * gradient accumulation; backward-weights reads the input the training
 * forward keeps.
 */

#include <cstddef>

#include "nn/layer.h"
#include "tensor/tensor.h"

namespace enode {

class Rng;

/**
 * Forward 2-D convolution, stride 1, same (zero) padding.
 *
 * @param x Input of shape (C, H, W).
 * @param weight Kernels of shape (M, C, K, K) with odd K.
 * @param bias Optional per-output-channel bias of shape (M); may be empty.
 * @return Output of shape (M, H, W).
 */
Tensor convForward(const Tensor &x, const Tensor &weight, const Tensor &bias);

/**
 * Backward-data convolution: gradient w.r.t. the input.
 *
 * Mathematically a convolution of grad_out with spatially flipped
 * kernels and C/M roles swapped — exactly the computation the unified
 * NN core maps onto the same PE groups and adder tree as the forward
 * pass (Fig. 9(c)).
 *
 * @param grad_out Gradient w.r.t. the output, shape (M, H, W).
 * @param weight Kernels of shape (M, C, K, K).
 * @return Gradient w.r.t. the input, shape (C, H, W).
 */
Tensor convBackwardData(const Tensor &grad_out, const Tensor &weight);

/**
 * Backward-weights: gradient w.r.t. the kernels.
 *
 * @param x The forward input, shape (C, H, W).
 * @param grad_out Gradient w.r.t. the output, shape (M, H, W).
 * @param kernel Kernel extent K (odd).
 * @return Gradient w.r.t. weight, shape (M, C, K, K).
 */
Tensor convBackwardWeights(const Tensor &x, const Tensor &grad_out,
                           std::size_t kernel);

/**
 * Per-output-channel bias gradient: sum of grad_out over H and W.
 *
 * @param grad_out Gradient w.r.t. the output, shape (M, H, W).
 * @return Gradient w.r.t. bias, shape (M).
 */
Tensor convBackwardBias(const Tensor &grad_out);

/**
 * In-place variants: write into a caller-owned output tensor, which is
 * resized (storage reused when the element count matches) — the
 * zero-allocation entry points the solver workspaces use.
 */
void convForwardInto(Tensor &out, const Tensor &x, const Tensor &weight,
                     const Tensor &bias);
void convBackwardDataInto(Tensor &grad_x, const Tensor &grad_out,
                          const Tensor &weight);
void convBackwardWeightsInto(Tensor &grad_w, const Tensor &x,
                             const Tensor &grad_out, std::size_t kernel);

/**
 * Batched forward over a leading batch dimension: xs is (N, C, H, W)
 * and the output (N, M, H, W). Each sample runs through the identical
 * per-sample core, so every sample's output is bitwise identical to
 * convForwardInto.
 */
void convForwardBatchedInto(Tensor &out, const Tensor &xs,
                            const Tensor &weight, const Tensor &bias);

/**
 * The original scalar kernels, retained verbatim as the ground truth
 * for equivalence testing of the blocked/vectorized kernels above (and
 * as the baseline the micro-benchmarks report speedups against).
 */
namespace reference {

Tensor convForward(const Tensor &x, const Tensor &weight, const Tensor &bias);
Tensor convBackwardData(const Tensor &grad_out, const Tensor &weight);
Tensor convBackwardWeights(const Tensor &x, const Tensor &grad_out,
                           std::size_t kernel);

} // namespace reference

/** 3x3 (or KxK) same convolution layer with learned weight and bias. */
class Conv2d : public Layer
{
  public:
    /**
     * @param in_channels C.
     * @param out_channels M.
     * @param kernel K (odd; the eNODE prototype uses 3).
     * @param rng Generator for Kaiming-uniform initialization.
     * @param with_bias Whether to learn a per-channel bias.
     */
    Conv2d(std::size_t in_channels, std::size_t out_channels,
           std::size_t kernel, Rng &rng, bool with_bias = true);

    void forwardBatched(const Tensor &xs, Tensor &out) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<ParamSlot> paramSlots() override;
    std::string name() const override;
    Shape outputShape(const Shape &input) const override;

    std::size_t inChannels() const { return inChannels_; }
    std::size_t outChannels() const { return outChannels_; }
    std::size_t kernel() const { return kernel_; }

    Tensor &weight() { return weight_; }
    const Tensor &weight() const { return weight_; }
    Tensor &bias() { return bias_; }
    const Tensor &bias() const { return bias_; }

  private:
    std::size_t inChannels_;
    std::size_t outChannels_;
    std::size_t kernel_;
    bool withBias_;

    Tensor weight_;     // (M, C, K, K)
    Tensor weightGrad_; // accumulated
    Tensor bias_;       // (M) or empty
    Tensor biasGrad_;
};

} // namespace enode

#endif // ENODE_NN_CONV2D_H
