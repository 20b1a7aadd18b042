#include "nn/activation.h"

#include <cmath>

#include "common/logging.h"

namespace enode {

Tensor
ReLU::forward(const Tensor &x)
{
    cachedInput_ = x;
    Tensor out = x;
    for (std::size_t i = 0; i < out.numel(); i++)
        if (out.at(i) < 0.0f)
            out.at(i) = 0.0f;
    return out;
}

void
ReLU::forwardBatched(const Tensor &xs, Tensor &out)
{
    // Pointwise: one branch-free sweep over the whole stacked buffer is
    // bitwise identical to the per-sample loops (and skips the backward
    // cache — the batched path is inference-only).
    out.resize(xs.shape());
    const float *src = xs.data();
    float *dst = out.data();
    for (std::size_t i = 0; i < xs.numel(); i++)
        dst[i] = src[i] < 0.0f ? 0.0f : src[i];
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    ENODE_ASSERT(!cachedInput_.empty(), "ReLU backward before forward");
    Tensor grad_in = grad_out;
    for (std::size_t i = 0; i < grad_in.numel(); i++)
        if (cachedInput_.at(i) <= 0.0f)
            grad_in.at(i) = 0.0f;
    return grad_in;
}

Tensor
Tanh::forward(const Tensor &x)
{
    Tensor out;
    forwardBatched(x, out); // pointwise: any shape is one flat sweep
    cachedOutput_ = out;
    return out;
}

void
Tanh::forwardBatched(const Tensor &xs, Tensor &out)
{
    out.resize(xs.shape());
    const float *src = xs.data();
    float *dst = out.data();
    for (std::size_t i = 0; i < xs.numel(); i++)
        dst[i] = std::tanh(src[i]);
}

Tensor
Tanh::backward(const Tensor &grad_out)
{
    ENODE_ASSERT(!cachedOutput_.empty(), "Tanh backward before forward");
    ENODE_ASSERT(grad_out.numel() == cachedOutput_.numel(),
                 "Tanh grad_out shape mismatch");
    Tensor grad_in = grad_out;
    float *gi = grad_in.data();
    const float *y = cachedOutput_.data();
    for (std::size_t i = 0; i < grad_in.numel(); i++)
        gi[i] *= 1.0f - y[i] * y[i];
    return grad_in;
}

Tensor
Softplus::forward(const Tensor &x)
{
    cachedInput_ = x;
    Tensor out = x;
    for (std::size_t i = 0; i < out.numel(); i++) {
        const float v = out.at(i);
        // Numerically stable softplus: max(v, 0) + log1p(exp(-|v|)).
        out.at(i) = std::max(v, 0.0f) + std::log1p(std::exp(-std::abs(v)));
    }
    return out;
}

void
Softplus::forwardBatched(const Tensor &xs, Tensor &out)
{
    out.resize(xs.shape());
    const float *src = xs.data();
    float *dst = out.data();
    for (std::size_t i = 0; i < xs.numel(); i++) {
        const float v = src[i];
        dst[i] = std::max(v, 0.0f) + std::log1p(std::exp(-std::abs(v)));
    }
}

Tensor
Softplus::backward(const Tensor &grad_out)
{
    ENODE_ASSERT(!cachedInput_.empty(), "Softplus backward before forward");
    Tensor grad_in = grad_out;
    for (std::size_t i = 0; i < grad_in.numel(); i++) {
        const float v = cachedInput_.at(i);
        grad_in.at(i) *= 1.0f / (1.0f + std::exp(-v)); // sigmoid(v)
    }
    return grad_in;
}

} // namespace enode
