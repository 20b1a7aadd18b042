#include "nn/sequential.h"

#include "common/logging.h"
#include "nn/activation.h"
#include "nn/concat_time.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/norm.h"

namespace enode {

Layer &
Sequential::add(LayerPtr layer)
{
    ENODE_ASSERT(layer != nullptr, "null layer");
    layers_.push_back(std::move(layer));
    return *layers_.back();
}

Layer &
Sequential::layer(std::size_t i)
{
    ENODE_ASSERT(i < layers_.size(), "layer index out of range");
    return *layers_[i];
}

Tensor
Sequential::forward(const Tensor &x)
{
    Tensor cur = x;
    for (auto &l : layers_)
        cur = l->forward(cur);
    return cur;
}

void
Sequential::forwardBatched(const Tensor &xs, Tensor &out)
{
    ENODE_ASSERT(&out != &xs, "forwardBatched output aliases input");
    if (layers_.empty()) {
        out.copyFrom(xs);
        return;
    }
    // Each inner boundary keeps its own activation; the last layer
    // writes straight into the caller's output buffer.
    acts_.resize(layers_.size() - 1);
    const Tensor *cur = &xs;
    for (std::size_t i = 0; i < layers_.size(); i++) {
        Tensor *dst = (i + 1 == layers_.size()) ? &out : &acts_[i];
        layers_[i]->forwardBatched(*cur, *dst);
        cur = dst;
    }
}

Tensor
Sequential::backward(const Tensor &grad_out)
{
    Tensor cur = grad_out;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        cur = (*it)->backward(cur);
    return cur;
}

std::vector<ParamSlot>
Sequential::paramSlots()
{
    std::vector<ParamSlot> slots;
    for (std::size_t i = 0; i < layers_.size(); i++) {
        for (auto &slot : layers_[i]->paramSlots()) {
            slot.name = "layer" + std::to_string(i) + "." + slot.name;
            slots.push_back(slot);
        }
    }
    return slots;
}

std::string
Sequential::name() const
{
    std::string s = "Sequential[";
    for (std::size_t i = 0; i < layers_.size(); i++)
        s += (i ? ", " : "") + layers_[i]->name();
    return s + "]";
}

Shape
Sequential::outputShape(const Shape &input) const
{
    Shape cur = input;
    for (const auto &l : layers_)
        cur = l->outputShape(cur);
    return cur;
}

EmbeddedNet::EmbeddedNet(std::unique_ptr<Sequential> body)
    : body_(std::move(body))
{
    ENODE_ASSERT(body_ != nullptr && body_->size() > 0,
                 "EmbeddedNet needs a non-empty body");
    timeLayer_ = dynamic_cast<ConcatTime *>(&body_->layer(0));
    ENODE_ASSERT(timeLayer_ != nullptr,
                 "EmbeddedNet body must start with ConcatTime");
}

std::unique_ptr<EmbeddedNet>
EmbeddedNet::makeConvNet(std::size_t channels, std::size_t depth, Rng &rng)
{
    ENODE_ASSERT(depth >= 1, "conv f needs depth >= 1");
    auto body = std::make_unique<Sequential>();
    body->add(std::make_unique<ConcatTime>());
    for (std::size_t d = 0; d < depth; d++) {
        const std::size_t in_ch = d == 0 ? channels + 1 : channels;
        body->add(std::make_unique<Conv2d>(in_ch, channels, 3, rng));
        // GroupNorm groups: smallest of 8 and the channel count, so tiny
        // test models with few channels still normalize.
        const std::size_t groups = channels >= 8 ? 8 : 1;
        body->add(std::make_unique<GroupNorm>(channels, groups));
        // The last conv output is the derivative estimate; keep it
        // unbounded (no ReLU) so f can produce negative slopes.
        if (d + 1 < depth)
            body->add(std::make_unique<ReLU>());
    }
    return std::make_unique<EmbeddedNet>(std::move(body));
}

std::unique_ptr<EmbeddedNet>
EmbeddedNet::makeStreamableConvNet(std::size_t channels, std::size_t depth,
                                   Rng &rng)
{
    ENODE_ASSERT(depth >= 1, "conv f needs depth >= 1");
    auto body = std::make_unique<Sequential>();
    body->add(std::make_unique<ConcatTime>());
    for (std::size_t d = 0; d < depth; d++) {
        const std::size_t in_ch = d == 0 ? channels + 1 : channels;
        body->add(std::make_unique<Conv2d>(in_ch, channels, 3, rng));
        if (d + 1 < depth)
            body->add(std::make_unique<ReLU>());
    }
    return std::make_unique<EmbeddedNet>(std::move(body));
}

std::unique_ptr<EmbeddedNet>
EmbeddedNet::makeMlp(std::size_t dim, std::size_t hidden, std::size_t depth,
                     Rng &rng)
{
    ENODE_ASSERT(depth >= 1, "mlp f needs depth >= 1");
    auto body = std::make_unique<Sequential>();
    body->add(std::make_unique<ConcatTime>());
    std::size_t in_features = dim + 1;
    for (std::size_t d = 0; d < depth; d++) {
        body->add(std::make_unique<Linear>(in_features, hidden, rng));
        body->add(std::make_unique<Tanh>());
        in_features = hidden;
    }
    body->add(std::make_unique<Linear>(in_features, dim, rng));
    return std::make_unique<EmbeddedNet>(std::move(body));
}

Tensor
EmbeddedNet::eval(double t, const Tensor &h)
{
    timeLayer_->setTime(t);
    evalCount_++;
    return body_->forward(h);
}

void
EmbeddedNet::evalBatched(const std::vector<double> &ts, const Tensor &hs,
                         Tensor &out)
{
    ENODE_ASSERT(hs.shape().rank() >= 2 && hs.shape().dim(0) == ts.size(),
                 "evalBatched needs one time per stacked sample");
    timeLayer_->setBatchTimes(ts);
    evalCount_ += ts.size();
    body_->forwardBatched(hs, out);
}

void
EmbeddedNet::evalInto(double t, const Tensor &h, Tensor &out)
{
    // A same-numel resize keeps the storage and the elements, so after
    // the first call neither view takes pool storage.
    oneTime_.assign(1, t);
    oneState_.copyFrom(h);
    oneState_.resize(h.shape().prepended(1));
    evalBatched(oneTime_, oneState_, out);
    const Shape &batched = out.shape();
    out.resize(Shape(batched.dims().begin() + 1, batched.dims().end()));
}

Tensor
EmbeddedNet::vjp(const Tensor &adjoint)
{
    vjpCount_++;
    return body_->backward(adjoint);
}

} // namespace enode
