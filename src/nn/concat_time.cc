#include "nn/concat_time.h"

#include <cstring>

#include "common/logging.h"

namespace enode {

void
ConcatTime::forwardBatched(const Tensor &xs, Tensor &out)
{
    const std::size_t n = xs.shape().dim(0);
    ENODE_ASSERT(times_.size() == n, "set ", times_.size(),
                 " times for a batch of ", n);
    if (xs.shape().rank() == 2) {
        const std::size_t d = xs.shape().dim(1);
        out.resize(Shape{n, d + 1});
        for (std::size_t i = 0; i < n; i++) {
            float *dst = out.data() + i * (d + 1);
            std::memcpy(dst, xs.data() + i * d, d * sizeof(float));
            dst[d] = static_cast<float>(times_[i]);
        }
        return;
    }
    ENODE_ASSERT(xs.shape().rank() == 4,
                 "batched ConcatTime supports rank 2 or 4, got ",
                 xs.shape().str());
    const std::size_t C = xs.shape().dim(1);
    const std::size_t H = xs.shape().dim(2);
    const std::size_t W = xs.shape().dim(3);
    out.resize(Shape{n, C + 1, H, W});
    for (std::size_t i = 0; i < n; i++) {
        float *dst = out.data() + i * (C + 1) * H * W;
        std::memcpy(dst, xs.data() + i * C * H * W,
                    C * H * W * sizeof(float));
        float *time_plane = dst + C * H * W;
        const float tv = static_cast<float>(times_[i]);
        for (std::size_t j = 0; j < H * W; j++)
            time_plane[j] = tv;
    }
}

Tensor
ConcatTime::backward(const Tensor &grad_out)
{
    // Drop the gradient of the appended time feature.
    Tensor grad_in(forwardInput().shape());
    std::memcpy(grad_in.data(), grad_out.data(),
                grad_in.numel() * sizeof(float));
    return grad_in;
}

Shape
ConcatTime::outputShape(const Shape &input) const
{
    if (input.rank() == 1)
        return Shape{input.dim(0) + 1};
    ENODE_ASSERT(input.rank() == 3, "ConcatTime supports rank 1 or 3");
    return Shape{input.dim(0) + 1, input.dim(1), input.dim(2)};
}

} // namespace enode
