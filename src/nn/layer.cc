#include "nn/layer.h"

#include "common/logging.h"

namespace enode {

Tensor
Layer::forward(const Tensor &x)
{
    // A same-numel resize keeps the storage and the elements, so the
    // batch-of-one views cost no copy beyond the kept input.
    input_.copyFrom(x);
    input_.resize(x.shape().prepended(1));
    forwardBatched(input_, output_);
    input_.resize(x.shape());
    const Shape &batched = output_.shape();
    output_.resize(Shape(batched.dims().begin() + 1, batched.dims().end()));
    return output_;
}

const Tensor &
Layer::forwardInput() const
{
    ENODE_ASSERT(!input_.empty(), name(), " backward before forward");
    return input_;
}

const Tensor &
Layer::forwardOutput() const
{
    ENODE_ASSERT(!output_.empty(), name(), " backward before forward");
    return output_;
}

void
Layer::zeroGrad()
{
    for (auto &slot : paramSlots())
        slot.grad->fill(0.0f);
}

std::size_t
Layer::paramCount()
{
    std::size_t n = 0;
    for (auto &slot : paramSlots())
        n += slot.param->numel();
    return n;
}

} // namespace enode
