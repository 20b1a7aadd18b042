#ifndef ENODE_NN_NORM_H
#define ENODE_NN_NORM_H

/**
 * @file
 * Group normalization.
 *
 * NODE embedded networks use GroupNorm rather than BatchNorm because the
 * solver evaluates f on single states (batch of one) at arbitrary times;
 * statistics must come from within the sample. The eNODE pre-/post-
 * processing unit computes this "Norm" stage (Sec. VI). Backward
 * propagates through the mean/variance statistics exactly.
 */

#include "nn/layer.h"

namespace enode {

/** GroupNorm over a (C, H, W) tensor with learned per-channel affine. */
class GroupNorm : public Layer
{
  public:
    /**
     * @param channels C; must be divisible by groups.
     * @param groups Number of channel groups sharing statistics.
     * @param eps Variance floor for numerical stability.
     */
    GroupNorm(std::size_t channels, std::size_t groups, float eps = 1e-5f);

    void forwardBatched(const Tensor &xs, Tensor &out) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<ParamSlot> paramSlots() override;
    std::string name() const override;
    Shape outputShape(const Shape &input) const override { return input; }

  private:
    /** A group's statistics as the forward applies them. */
    struct GroupStats
    {
        float mean;
        float invStd;
    };

    /**
     * Mean and 1 / sqrt(var + eps) of group g of sample s of a stacked
     * (n, C, H, W) tensor, reduced serially in double in (c, h, w)
     * order. forward and backward both call it, so backward's x_hat is
     * bitwise the forward's.
     */
    GroupStats groupStats(const Tensor &xs, std::size_t s,
                          std::size_t g) const;

    std::size_t channels_;
    std::size_t groups_;
    float eps_;

    Tensor gamma_; // (C)
    Tensor gammaGrad_;
    Tensor beta_; // (C)
    Tensor betaGrad_;
};

} // namespace enode

#endif // ENODE_NN_NORM_H
