#include "nn/linear.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"

namespace enode {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng &rng,
               bool with_bias)
    : inFeatures_(in_features),
      outFeatures_(out_features),
      withBias_(with_bias),
      weightGrad_(Shape{out_features, in_features})
{
    const float bound =
        static_cast<float>(std::sqrt(6.0 / static_cast<double>(in_features)));
    weight_ = Tensor::uniform(Shape{out_features, in_features}, rng, -bound,
                              bound);
    if (withBias_) {
        bias_ = Tensor::uniform(Shape{out_features}, rng, -bound, bound);
        biasGrad_ = Tensor(Shape{out_features});
    }
}

const float *
Linear::panels()
{
    const Tensor &w = weight_;
    if (panels_.empty() || packedVersion_ != w.writeVersion()) {
        panels_.resize(matvecPanelsSize(outFeatures_, inFeatures_));
        packMatvecPanels(panels_.data(), w.data(), outFeatures_,
                         inFeatures_);
        packedVersion_ = w.writeVersion();
    }
    return panels_.data();
}

void
Linear::forwardBatched(const Tensor &xs, Tensor &out)
{
    ENODE_ASSERT(xs.shape().rank() == 2 && xs.shape().dim(1) == inFeatures_,
                 "batched Linear expects (n, ", inFeatures_, "), got ",
                 xs.shape().str());
    const float *pw = panels();
    const std::size_t n = xs.shape().dim(0);
    out.resize(Shape{n, outFeatures_});
    const float *xd = xs.data();
    float *od = out.data();

    // One matvec per sample, so each row is that sample's alone at
    // every batch size. SIMD width comes from the panel rows, not from
    // sample parallelism, so every batch size takes the same path with
    // no scalar-remainder cliff at small batches.
    const SimdOps &ops = simdOps();
    const float *bd = withBias_ ? std::as_const(bias_).data() : nullptr;
    for (std::size_t s = 0; s < n; s++)
        ops.matvecPanels(od + s * outFeatures_, pw, bd, xd + s * inFeatures_,
                         outFeatures_, inFeatures_);
}

Tensor
Linear::backward(const Tensor &grad_out)
{
    const Tensor &input = forwardInput();
    ENODE_ASSERT(grad_out.shape().rank() == 1 &&
                     grad_out.shape().dim(0) == outFeatures_,
                 "Linear grad_out shape mismatch");

    // Both products run on the elementwise axpy kernel (y[i] += x[i] * a,
    // per-op rounding), so every backend reproduces the scalar
    // per-element order bitwise: gw[o][i] += g[o] * x[i], and
    // grad_in[i] = ((0 + W[0][i] g[0]) + W[1][i] g[1]) + ... with o
    // ascending.
    const SimdOps &ops = simdOps();
    const float *g = grad_out.data();
    const float *x = input.data();
    const float *wd = std::as_const(weight_).data();
    float *gw = weightGrad_.data();
    float *gb = withBias_ ? biasGrad_.data() : nullptr;
    Tensor grad_in(Shape{inFeatures_}); // zero filled
    float *gi = grad_in.data();
    for (std::size_t o = 0; o < outFeatures_; o++) {
        ops.axpy(gw + o * inFeatures_, g[o], x, inFeatures_);
        ops.axpy(gi, g[o], wd + o * inFeatures_, inFeatures_);
        if (gb)
            gb[o] += g[o];
    }
    return grad_in;
}

std::vector<ParamSlot>
Linear::paramSlots()
{
    std::vector<ParamSlot> slots;
    slots.push_back({"weight", &weight_, &weightGrad_});
    if (withBias_)
        slots.push_back({"bias", &bias_, &biasGrad_});
    return slots;
}

std::string
Linear::name() const
{
    return "Linear(" + std::to_string(inFeatures_) + "->" +
           std::to_string(outFeatures_) + ")";
}

std::optional<Shape>
Linear::outputShape(const Shape &input) const
{
    if (input.rank() != 1 || input.dim(0) != inFeatures_)
        return std::nullopt;
    return Shape{outFeatures_};
}

} // namespace enode
