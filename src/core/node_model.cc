#include "core/node_model.h"

#include "common/logging.h"
#include "common/rng.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/pool.h"

namespace enode {

namespace {

/** A request's guard seen from one layer solve: each check adds the
 *  earlier layers' stats, so a per-request budget
 *  (DeadlineGuard::maxFEvals) spans the whole forward pass. */
class RequestGuard final : public SolveGuard
{
  public:
    RequestGuard(SolveGuard *inner, const IvpStats &earlier)
        : inner_(inner), earlier_(earlier)
    {
    }

    SolveStatus
    check(const IvpStats &stats) override
    {
        IvpStats total = earlier_;
        total.accumulate(stats);
        return inner_->check(total);
    }

  private:
    SolveGuard *inner_;
    const IvpStats &earlier_;
};

} // namespace

NodeModel::NodeModel(std::vector<std::unique_ptr<EmbeddedNet>> nets,
                     double layer_time)
    : nets_(std::move(nets)), layerTime_(layer_time)
{
    ENODE_ASSERT(!nets_.empty(), "NodeModel needs >= 1 integration layer");
    ENODE_ASSERT(layerTime_ > 0.0, "layer time must be positive");
}

std::unique_ptr<NodeModel>
NodeModel::makeConv(std::size_t num_layers, std::size_t channels,
                    std::size_t f_depth, Rng &rng)
{
    std::vector<std::unique_ptr<EmbeddedNet>> nets;
    nets.reserve(num_layers);
    for (std::size_t i = 0; i < num_layers; i++)
        nets.push_back(EmbeddedNet::makeConvNet(channels, f_depth, rng));
    return std::make_unique<NodeModel>(std::move(nets));
}

std::unique_ptr<NodeModel>
NodeModel::makeMlp(std::size_t num_layers, std::size_t dim,
                   std::size_t hidden, std::size_t f_depth, Rng &rng)
{
    std::vector<std::unique_ptr<EmbeddedNet>> nets;
    nets.reserve(num_layers);
    for (std::size_t i = 0; i < num_layers; i++)
        nets.push_back(EmbeddedNet::makeMlp(dim, hidden, f_depth, rng));
    return std::make_unique<NodeModel>(std::move(nets));
}

std::unique_ptr<NodeModel>
NodeModel::makeAugmentedMlp(std::size_t num_layers, std::size_t dim,
                            std::size_t aug, std::size_t hidden,
                            std::size_t f_depth, Rng &rng)
{
    return makeMlp(num_layers, dim + aug, hidden, f_depth, rng);
}

Tensor
augmentState(const Tensor &x, std::size_t aug)
{
    ENODE_ASSERT(x.shape().rank() == 1, "augmentState needs a rank-1 state");
    const std::size_t dim = x.shape().dim(0);
    Tensor out(Shape{dim + aug});
    for (std::size_t i = 0; i < dim; i++)
        out.at(i) = x.at(i);
    return out;
}

Tensor
truncateState(const Tensor &x, std::size_t dim)
{
    ENODE_ASSERT(x.shape().rank() == 1 && x.shape().dim(0) >= dim,
                 "truncateState: state smaller than requested dim");
    Tensor out(Shape{dim});
    for (std::size_t i = 0; i < dim; i++)
        out.at(i) = x.at(i);
    return out;
}

NodeForwardResult
NodeModel::forward(const Tensor &x, const ButcherTableau &tableau,
                   StepController &controller, const IvpOptions &opts,
                   TrialEvaluator *evaluator, SolveGuard *guard)
{
    NodeForwardResult result;
    result.layers.reserve(nets_.size());
    RequestGuard request_guard(guard, result.totalStats);
    Tensor h = x;
    for (auto &net : nets_) {
        EmbeddedNetOde ode(*net);
        IvpResult layer = solveIvp(
            ode, h, 0.0, layerTime_, tableau, controller, opts, evaluator,
            &ivpWorkspace_, guard ? &request_guard : nullptr);
        h = layer.yFinal;
        const SolveStatus status = layer.status;
        result.totalStats.accumulate(layer.stats);
        result.layers.push_back(std::move(layer));
        if (status != SolveStatus::Ok) {
            // A poisoned or aborted layer must not feed the next one:
            // stop here and surface the structured status.
            result.status = status;
            break;
        }
    }
    result.output = std::move(h);
    return result;
}

BatchedForwardResult
NodeModel::forwardBatched(const std::vector<Tensor> &xs,
                          const ButcherTableau &tableau,
                          const std::vector<StepController *> &controllers,
                          const IvpOptions &opts,
                          const std::vector<SolveGuard *> *guards)
{
    const std::size_t n = xs.size();
    ENODE_ASSERT(controllers.size() == n, "one controller per sample");
    ENODE_ASSERT(guards == nullptr || guards->size() == n,
                 "guards sized like the batch when present");

    BatchedForwardResult result;
    result.outputs = xs;
    result.stats.resize(n);
    result.status.assign(n, SolveStatus::Ok);

    // Active set: samples still Ok. A failed sample keeps its (untrusted)
    // state in outputs but stops consuming layer solves.
    std::vector<std::size_t> active(n);
    for (std::size_t i = 0; i < n; i++)
        active[i] = i;
    // Each sample's guard sees its request's stats so far.
    std::vector<RequestGuard> request_guards;
    if (guards != nullptr) {
        request_guards.reserve(n);
        for (std::size_t i = 0; i < n; i++)
            request_guards.emplace_back((*guards)[i], result.stats[i]);
    }

    std::vector<const Tensor *> y0;
    std::vector<StepController *> ctrls;
    std::vector<SolveGuard *> layer_guards;
    for (auto &net : nets_) {
        if (active.empty())
            break;
        y0.clear();
        ctrls.clear();
        layer_guards.clear();
        for (std::size_t i : active) {
            y0.push_back(&result.outputs[i]);
            ctrls.push_back(controllers[i]);
            if (guards != nullptr)
                layer_guards.push_back((*guards)[i] ? &request_guards[i]
                                                    : nullptr);
        }
        EmbeddedNetOde ode(*net);
        BatchedIvpResult layer = solveIvpBatched(
            ode, y0, 0.0, layerTime_, tableau, ctrls, opts,
            &batchedIvpWorkspace_, guards ? &layer_guards : nullptr);
        std::size_t kept = 0;
        for (std::size_t j = 0; j < active.size(); j++) {
            const std::size_t i = active[j];
            result.outputs[i] = std::move(layer.yFinal[j]);
            result.stats[i].accumulate(layer.stats[j]);
            if (layer.status[j] != SolveStatus::Ok)
                result.status[i] = layer.status[j];
            else
                active[kept++] = i;
        }
        active.resize(kept);
    }
    return result;
}

std::vector<ParamSlot>
NodeModel::paramSlots()
{
    std::vector<ParamSlot> slots;
    for (std::size_t i = 0; i < nets_.size(); i++) {
        for (auto &slot : nets_[i]->paramSlots()) {
            slot.name = "node" + std::to_string(i) + "." + slot.name;
            slots.push_back(slot);
        }
    }
    return slots;
}

void
NodeModel::zeroGrad()
{
    for (auto &net : nets_)
        net->zeroGrad();
}

std::size_t
NodeModel::paramCount()
{
    std::size_t n = 0;
    for (auto &net : nets_)
        n += net->paramCount();
    return n;
}

NodeClassifier::NodeClassifier(std::size_t in_channels,
                               std::size_t state_channels,
                               std::size_t num_layers, std::size_t f_depth,
                               std::size_t num_classes, Rng &rng)
{
    encoder_ = std::make_unique<Sequential>();
    encoder_->add(
        std::make_unique<Conv2d>(in_channels, state_channels, 3, rng));
    encoder_->add(std::make_unique<GroupNorm>(
        state_channels, state_channels >= 8 ? 8 : 1));
    encoder_->add(std::make_unique<ReLU>());

    node_ = NodeModel::makeConv(num_layers, state_channels, f_depth, rng);

    head_ = std::make_unique<Sequential>();
    head_->add(std::make_unique<GlobalAvgPool>());
    head_->add(std::make_unique<Linear>(state_channels, num_classes, rng));
}

NodeClassifier::Result
NodeClassifier::forward(const Tensor &image, const ButcherTableau &tableau,
                        StepController &controller, const IvpOptions &opts,
                        TrialEvaluator *evaluator)
{
    Result result;
    const Tensor h0 = encoder_->forward(image);
    result.node = node_->forward(h0, tableau, controller, opts, evaluator);
    result.logits = head_->forward(result.node.output);
    return result;
}

std::vector<ParamSlot>
NodeClassifier::paramSlots()
{
    std::vector<ParamSlot> slots;
    for (auto &slot : encoder_->paramSlots()) {
        slot.name = "encoder." + slot.name;
        slots.push_back(slot);
    }
    for (auto &slot : node_->paramSlots())
        slots.push_back(slot);
    for (auto &slot : head_->paramSlots()) {
        slot.name = "head." + slot.name;
        slots.push_back(slot);
    }
    return slots;
}

void
NodeClassifier::zeroGrad()
{
    encoder_->zeroGrad();
    node_->zeroGrad();
    head_->zeroGrad();
}

} // namespace enode
