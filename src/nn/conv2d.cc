#include "nn/conv2d.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace enode {

Tensor
convBackwardBias(const Tensor &grad_out)
{
    ENODE_ASSERT(grad_out.shape().rank() == 3, "grad_out must be MHW");
    const std::size_t M = grad_out.shape().dim(0);
    const std::size_t HW = grad_out.shape().dim(1) * grad_out.shape().dim(2);
    Tensor grad_b(Shape{M});
    const float *gd = grad_out.data();
    for (std::size_t m = 0; m < M; m++) {
        const float *g_map = gd + m * HW;
        float acc = 0.0f;
        for (std::size_t i = 0; i < HW; i++)
            acc += g_map[i];
        grad_b.at(m) = acc;
    }
    return grad_b;
}

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, Rng &rng, bool with_bias)
    : inChannels_(in_channels),
      outChannels_(out_channels),
      kernel_(kernel),
      withBias_(with_bias),
      weightGrad_(Shape{out_channels, in_channels, kernel, kernel})
{
    ENODE_ASSERT(kernel % 2 == 1, "Conv2d kernel must be odd");
    // Kaiming-uniform fan-in initialization, standard for ReLU nets.
    const double fan_in =
        static_cast<double>(in_channels) * kernel * kernel;
    const float bound = static_cast<float>(std::sqrt(6.0 / fan_in));
    weight_ = Tensor::uniform(Shape{out_channels, in_channels, kernel, kernel},
                              rng, -bound, bound);
    if (withBias_) {
        bias_ = Tensor::uniform(Shape{out_channels}, rng, -bound, bound);
        biasGrad_ = Tensor(Shape{out_channels});
    }
}

void
Conv2d::forwardBatched(const Tensor &xs, Tensor &out)
{
    convForwardBatchedInto(out, xs, weight_, bias_);
}

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    weightGrad_ += convBackwardWeights(forwardInput(), grad_out, kernel_);
    if (withBias_)
        biasGrad_ += convBackwardBias(grad_out);
    return convBackwardData(grad_out, weight_);
}

std::vector<ParamSlot>
Conv2d::paramSlots()
{
    std::vector<ParamSlot> slots;
    slots.push_back({"weight", &weight_, &weightGrad_});
    if (withBias_)
        slots.push_back({"bias", &bias_, &biasGrad_});
    return slots;
}

std::string
Conv2d::name() const
{
    return "Conv2d(" + std::to_string(inChannels_) + "->" +
           std::to_string(outChannels_) + ", k=" + std::to_string(kernel_) +
           ")";
}

std::optional<Shape>
Conv2d::outputShape(const Shape &input) const
{
    if (input.rank() != 3 || input.dim(0) != inChannels_)
        return std::nullopt; // CHW with C = inChannels only
    return Shape{outChannels_, input.dim(1), input.dim(2)};
}

} // namespace enode
