#include "nn/activation.h"

#include "common/logging.h"
#include "common/simd.h"

namespace enode {

void
ReLU::forwardBatched(const Tensor &xs, Tensor &out)
{
    // Pointwise: one branch-free sweep over the whole stacked buffer.
    out.resize(xs.shape());
    const float *src = xs.data();
    float *dst = out.data();
    for (std::size_t i = 0; i < xs.numel(); i++)
        dst[i] = src[i] < 0.0f ? 0.0f : src[i];
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    const Tensor &x = forwardInput();
    Tensor grad_in = grad_out;
    for (std::size_t i = 0; i < grad_in.numel(); i++)
        if (x.at(i) <= 0.0f)
            grad_in.at(i) = 0.0f;
    return grad_in;
}

void
Tanh::forwardBatched(const Tensor &xs, Tensor &out)
{
    out.resize(xs.shape());
    simdOps().tanh(out.data(), xs.data(), xs.numel());
}

Tensor
Tanh::backward(const Tensor &grad_out)
{
    const Tensor &y_out = forwardOutput();
    ENODE_ASSERT(grad_out.numel() == y_out.numel(),
                 "Tanh grad_out shape mismatch");
    Tensor grad_in = grad_out;
    float *gi = grad_in.data();
    const float *y = y_out.data();
    for (std::size_t i = 0; i < grad_in.numel(); i++)
        gi[i] *= 1.0f - y[i] * y[i];
    return grad_in;
}

} // namespace enode
