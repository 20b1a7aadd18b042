#include "nn/pool.h"

#include "common/logging.h"

namespace enode {

void
GlobalAvgPool::forwardBatched(const Tensor &xs, Tensor &out)
{
    ENODE_ASSERT(xs.shape().rank() == 4, "batched GlobalAvgPool expects "
                 "(n, C, H, W), got ", xs.shape().str());
    const std::size_t n = xs.shape().dim(0);
    const std::size_t C = xs.shape().dim(1);
    const std::size_t H = xs.shape().dim(2);
    const std::size_t W = xs.shape().dim(3);
    out.resize(Shape{n, C});
    for (std::size_t s = 0; s < n; s++) {
        for (std::size_t c = 0; c < C; c++) {
            float acc = 0.0f;
            for (std::size_t h = 0; h < H; h++)
                for (std::size_t w = 0; w < W; w++)
                    acc += xs.at(s, c, h, w);
            out.at(s * C + c) = acc / static_cast<float>(H * W);
        }
    }
}

Tensor
GlobalAvgPool::backward(const Tensor &grad_out)
{
    const Shape &in_shape = forwardInput().shape();
    const std::size_t C = in_shape.dim(0);
    const std::size_t H = in_shape.dim(1);
    const std::size_t W = in_shape.dim(2);
    Tensor grad_in(in_shape);
    for (std::size_t c = 0; c < C; c++) {
        const float g = grad_out.at(c) / static_cast<float>(H * W);
        for (std::size_t h = 0; h < H; h++)
            for (std::size_t w = 0; w < W; w++)
                grad_in.at(c, h, w) = g;
    }
    return grad_in;
}

std::optional<Shape>
GlobalAvgPool::outputShape(const Shape &input) const
{
    if (input.rank() != 3)
        return std::nullopt; // CHW only
    return Shape{input.dim(0)};
}

} // namespace enode
