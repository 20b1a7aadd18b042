#include "nn/linear.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"

namespace enode {

namespace {

/**
 * out[o] = bias[o] + weight[o] . x — the Linear matvec, one fixed-lane
 * SIMD dot per output row. Solo forward and the batched per-sample loop
 * both call exactly this, so a batched solve reproduces the solo
 * outputs bitwise at every batch size (the batched-vs-solo contract the
 * runtime tests pin), with no scalar-remainder cliff at small batches.
 */
void
matvec(const SimdOps &ops, const float *wd, const float *bd, std::size_t O,
       std::size_t I, const float *x, float *out)
{
    for (std::size_t o = 0; o < O; o++) {
        const float sum = ops.dot(wd + o * I, x, I);
        out[o] = bd ? bd[o] + sum : sum;
    }
}

} // namespace

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

Tensor
Linear::forward(const Tensor &x)
{
    ENODE_ASSERT(x.shape().rank() == 1 && x.shape().dim(0) == inFeatures_,
                 "Linear expects (", inFeatures_, "), got ", x.shape().str());
    cachedInput_ = x;
    Tensor out(Shape{outFeatures_});
    matvec(simdOps(), weight_.data(), withBias_ ? bias_.data() : nullptr,
           outFeatures_, inFeatures_, x.data(), out.data());
    return out;
}

void
Linear::forwardBatched(const Tensor &xs, Tensor &out)
{
    ENODE_ASSERT(xs.shape().rank() == 2 && xs.shape().dim(1) == inFeatures_,
                 "batched Linear expects (n, ", inFeatures_, "), got ",
                 xs.shape().str());
    const std::size_t n = xs.shape().dim(0);
    out.resize(Shape{n, outFeatures_});
    const float *xd = xs.data();
    float *od = out.data();

    // Per-sample matvec, the exact solo kernel. The previous scheme
    // blocked samples eight at a time through a transposed scratch to
    // manufacture SIMD width from sample parallelism, which left every
    // batch smaller than eight (and every remainder) on a scalar path —
    // the source of the non-monotone serving-throughput dip at batch 4.
    // With the dot itself vectorized through the fixed-lane SIMD
    // kernel, width comes from the feature dimension instead and every
    // batch size takes the same path.
    const SimdOps &ops = simdOps();
    const float *bd = withBias_ ? bias_.data() : nullptr;
    for (std::size_t s = 0; s < n; s++)
        matvec(ops, weight_.data(), bd, outFeatures_, inFeatures_,
               xd + s * inFeatures_, od + s * outFeatures_);
}

Tensor
Linear::backward(const Tensor &grad_out)
{
    ENODE_ASSERT(!cachedInput_.empty(), "Linear backward before forward");
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
    const float *x = cachedInput_.data();
    const float *wd = weight_.data();
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

Shape
Linear::outputShape(const Shape &input) const
{
    ENODE_ASSERT(input.rank() == 1 && input.dim(0) == inFeatures_,
                 "Linear input shape mismatch");
    return Shape{outFeatures_};
}

} // namespace enode
