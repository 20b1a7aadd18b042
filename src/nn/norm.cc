#include "nn/norm.h"

#include <cmath>

#include "common/logging.h"

namespace enode {

GroupNorm::GroupNorm(std::size_t channels, std::size_t groups, float eps)
    : channels_(channels),
      groups_(groups),
      eps_(eps),
      gamma_(Shape{channels}, 1.0f),
      gammaGrad_(Shape{channels}),
      beta_(Shape{channels}),
      betaGrad_(Shape{channels})
{
    ENODE_ASSERT(groups > 0 && channels % groups == 0,
                 "channels ", channels, " not divisible by groups ", groups);
}

GroupNorm::GroupStats
GroupNorm::groupStats(const Tensor &xs, std::size_t s, std::size_t g) const
{
    const std::size_t cpg = channels_ / groups_; // channels per group
    const std::size_t H = xs.shape().dim(2);
    const std::size_t W = xs.shape().dim(3);
    const std::size_t group_elems = cpg * H * W;
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++) {
        for (std::size_t h = 0; h < H; h++) {
            for (std::size_t w = 0; w < W; w++) {
                const double v = xs.at(s, c, h, w);
                sum += v;
                sum_sq += v * v;
            }
        }
    }
    const double mean = sum / group_elems;
    const double var = std::max(0.0, sum_sq / group_elems - mean * mean);
    return {static_cast<float>(mean),
            static_cast<float>(1.0 / std::sqrt(var + eps_))};
}

void
GroupNorm::forwardBatched(const Tensor &xs, Tensor &out)
{
    ENODE_ASSERT(xs.shape().rank() == 4 && xs.shape().dim(1) == channels_,
                 "batched GroupNorm expects (n, C=", channels_,
                 ", H, W), got ", xs.shape().str());
    const std::size_t n = xs.shape().dim(0);
    const std::size_t H = xs.shape().dim(2);
    const std::size_t W = xs.shape().dim(3);
    const std::size_t cpg = channels_ / groups_;
    const Tensor &gamma = gamma_;
    const Tensor &beta = beta_;
    out.resize(xs.shape());
    // Each sample's statistics come from that sample alone.
    for (std::size_t s = 0; s < n; s++) {
        for (std::size_t g = 0; g < groups_; g++) {
            const GroupStats st = groupStats(xs, s, g);
            for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++) {
                for (std::size_t h = 0; h < H; h++) {
                    for (std::size_t w = 0; w < W; w++) {
                        const float xh =
                            (xs.at(s, c, h, w) - st.mean) * st.invStd;
                        out.at(s, c, h, w) = gamma.at(c) * xh + beta.at(c);
                    }
                }
            }
        }
    }
}

Tensor
GroupNorm::backward(const Tensor &grad_out)
{
    // Recompute the forward's statistics and x_hat from the kept input,
    // with the forward's arithmetic in the forward's order.
    const Tensor &input = forwardInput();
    const Tensor x = input.reshaped(input.shape().prepended(1));
    const std::size_t C = channels_;
    const std::size_t H = input.shape().dim(1);
    const std::size_t W = input.shape().dim(2);
    const std::size_t cpg = C / groups_;
    const double n = static_cast<double>(cpg * H * W);
    Tensor x_hat(input.shape());
    std::vector<float> inv_stds(groups_);
    for (std::size_t g = 0; g < groups_; g++) {
        const GroupStats st = groupStats(x, 0, g);
        inv_stds[g] = st.invStd;
        for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++)
            for (std::size_t h = 0; h < H; h++)
                for (std::size_t w = 0; w < W; w++)
                    x_hat.at(c, h, w) =
                        (x.at(0, c, h, w) - st.mean) * st.invStd;
    }

    // Parameter gradients.
    for (std::size_t c = 0; c < C; c++) {
        double dg = 0.0, db = 0.0;
        for (std::size_t h = 0; h < H; h++) {
            for (std::size_t w = 0; w < W; w++) {
                dg += grad_out.at(c, h, w) * x_hat.at(c, h, w);
                db += grad_out.at(c, h, w);
            }
        }
        gammaGrad_.at(c) += static_cast<float>(dg);
        betaGrad_.at(c) += static_cast<float>(db);
    }

    // Input gradient. With dxhat = grad_out * gamma:
    // dx = inv_std/n * (n*dxhat - sum(dxhat) - x_hat * sum(dxhat*x_hat))
    Tensor grad_in(x_hat.shape());
    for (std::size_t g = 0; g < groups_; g++) {
        double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
        for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++) {
            for (std::size_t h = 0; h < H; h++) {
                for (std::size_t w = 0; w < W; w++) {
                    const double dxh =
                        static_cast<double>(grad_out.at(c, h, w)) *
                        gamma_.at(c);
                    sum_dxhat += dxh;
                    sum_dxhat_xhat += dxh * x_hat.at(c, h, w);
                }
            }
        }
        const double inv_std = inv_stds[g];
        for (std::size_t c = g * cpg; c < (g + 1) * cpg; c++) {
            for (std::size_t h = 0; h < H; h++) {
                for (std::size_t w = 0; w < W; w++) {
                    const double dxh =
                        static_cast<double>(grad_out.at(c, h, w)) *
                        gamma_.at(c);
                    grad_in.at(c, h, w) = static_cast<float>(
                        inv_std / n *
                        (n * dxh - sum_dxhat -
                         x_hat.at(c, h, w) * sum_dxhat_xhat));
                }
            }
        }
    }
    return grad_in;
}

std::vector<ParamSlot>
GroupNorm::paramSlots()
{
    return {{"gamma", &gamma_, &gammaGrad_}, {"beta", &beta_, &betaGrad_}};
}

std::string
GroupNorm::name() const
{
    return "GroupNorm(C=" + std::to_string(channels_) +
           ", G=" + std::to_string(groups_) + ")";
}

} // namespace enode
