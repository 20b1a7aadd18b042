/**
 * @file
 * NodeModel / NodeClassifier: layer chaining, stats aggregation,
 * complexity scaling (Fig. 3), and end-to-end classifier behaviour.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/aca_trainer.h"
#include "core/memory_profile.h"
#include "core/node_model.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "runtime/model_registry.h"
#include "workloads/synthetic_images.h"

namespace enode {
namespace {

IvpOptions
quickOptions()
{
    IvpOptions opts;
    opts.tolerance = 1e-3;
    opts.initialDt = 0.2;
    return opts;
}

TEST(NodeModel, ForwardChainsLayers)
{
    Rng rng(1);
    auto model = NodeModel::makeMlp(3, 4, 8, 1, rng);
    EXPECT_EQ(model->numLayers(), 3u);
    Tensor x = Tensor::randn(Shape{4}, rng, 1.0f);
    FixedFactorController ctrl;
    auto fwd = model->forward(x, ButcherTableau::rk23(), ctrl,
                              quickOptions());
    EXPECT_EQ(fwd.layers.size(), 3u);
    EXPECT_EQ(fwd.output.shape(), x.shape());
    // Total stats aggregate the per-layer stats.
    std::uint64_t pts = 0;
    for (const auto &layer : fwd.layers)
        pts += layer.stats.evalPoints;
    EXPECT_EQ(fwd.totalStats.evalPoints, pts);
    EXPECT_GT(pts, 0u);
}

TEST(NodeModel, ComplexityScalesWithLayers)
{
    // Fig. 3: forward complexity is O(N * n_eval * n_try * s).
    Rng rng(2);
    Tensor x = Tensor::randn(Shape{4}, rng, 1.0f);
    auto one = NodeModel::makeMlp(1, 4, 8, 1, rng);
    auto four = NodeModel::makeMlp(4, 4, 8, 1, rng);
    FixedFactorController c1, c4;
    auto f1 = one->forward(x, ButcherTableau::rk23(), c1, quickOptions());
    auto f4 = four->forward(x, ButcherTableau::rk23(), c4, quickOptions());
    EXPECT_GT(f4.totalStats.fEvals, 2 * f1.totalStats.fEvals);
}

TEST(NodeModel, ParamSlotsAreNamedPerLayer)
{
    Rng rng(3);
    auto model = NodeModel::makeMlp(2, 3, 4, 1, rng);
    auto slots = model->paramSlots();
    ASSERT_FALSE(slots.empty());
    EXPECT_EQ(slots.front().name.substr(0, 5), "node0");
    EXPECT_EQ(slots.back().name.substr(0, 5), "node1");
    EXPECT_GT(model->paramCount(), 0u);
    model->zeroGrad();
    for (auto &slot : slots)
        EXPECT_DOUBLE_EQ(slot.grad->l2Norm(), 0.0);
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/** Per-sample outputs of one batched forward, each solve checked Ok. */
std::vector<Tensor>
batchedOutputs(NodeModel &model, const std::vector<Tensor> &xs,
               const IvpOptions &opts)
{
    std::vector<FixedFactorController> ctrls(xs.size());
    std::vector<StepController *> ptrs;
    for (auto &c : ctrls)
        ptrs.push_back(&c);
    BatchedForwardResult res =
        model.forwardBatched(xs, ButcherTableau::rk23(), ptrs, opts);
    for (SolveStatus status : res.status)
        EXPECT_EQ(status, SolveStatus::Ok);
    return std::move(res.outputs);
}

/** Per-sample outputs of one solo forward per input. */
std::vector<Tensor>
soloOutputs(NodeModel &model, const std::vector<Tensor> &xs,
            const IvpOptions &opts)
{
    std::vector<Tensor> outs;
    for (const Tensor &x : xs) {
        FixedFactorController ctrl;
        outs.push_back(
            model.forward(x, ButcherTableau::rk23(), ctrl, opts).output);
    }
    return outs;
}

/** Every parameter's write version, in paramSlots() order. */
std::vector<std::uint64_t>
paramVersions(NodeModel &model)
{
    std::vector<std::uint64_t> versions;
    for (const ParamSlot &slot : model.paramSlots())
        versions.push_back(slot.param->writeVersion());
    return versions;
}

TEST(NodeModel, BothForwardsFollowEveryParameterWrite)
{
    // Linear's forwards read a column-panel copy of its weights, which
    // it repacks when the weight's write version moves; no writer
    // tells it. After each writer below, the solo and the batched
    // forward must both equal, bit for bit, those of a model that never
    // ran a forward and got the same bytes through applyTo. At batch 1
    // the solo forward is the first read after the write, at batch 3
    // the batched one, so each entry point repacks in turn.
    // perfbench's MLP shape: dim 16, hidden 64, f depth 2.
    constexpr std::size_t kDim = 16;
    const auto makeModel = [](std::uint64_t seed) {
        Rng rng(seed);
        return NodeModel::makeMlp(2, kDim, 64, 2, rng);
    };
    const std::string path = ::testing::TempDir() + "forward_fresh.ckpt";
    IvpOptions opts;
    opts.tolerance = 1e-4;
    opts.initialDt = 0.05;
    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        for (std::size_t n : {1, 3}) {
            auto model = makeModel(41);
            auto &lin =
                dynamic_cast<Linear &>(model->net(0).body().layer(1));
            Rng rng(43);
            std::vector<Tensor> xs;
            for (std::size_t i = 0; i < n; i++)
                xs.push_back(Tensor::randn(Shape{kDim}, rng, 0.5f));
            const Tensor target = Tensor::randn(Shape{kDim}, rng, 0.5f);
            const Shape wshape = lin.weight().shape();

            const std::pair<const char *, std::function<void()>> writers[] = {
                {"ModelRegistry::applyTo",
                 [&] {
                     ModelRegistry::applyTo(
                         *ModelRegistry::capture(*makeModel(101)), *model);
                 }},
                {"Sgd::step",
                 [&] {
                     model->zeroGrad();
                     FixedFactorController ctrl;
                     regressionTrainStep(*model, xs[0], target,
                                         ButcherTableau::rk23(), ctrl,
                                         opts);
                     Sgd(model->paramSlots(), 0.1).step();
                 }},
                {"loadParameters",
                 [&] {
                     saveParameters(path, makeModel(303)->paramSlots());
                     loadParameters(path, model->paramSlots());
                 }},
                {"at()", [&] { lin.weight().at(5) += 0.25f; }},
                {"data() pointer",
                 [&] {
                     float *w = lin.weight().data();
                     w[7] -= 0.5f;
                     w[70] += 0.5f;
                 }},
                {"fill", [&] { lin.weight().fill(0.01f); }},
                {"copy assignment",
                 [&] {
                     const Tensor w = Tensor::randn(wshape, rng, 0.3f);
                     lin.weight() = w;
                 }},
                {"move assignment",
                 [&] { lin.weight() = Tensor::randn(wshape, rng, 0.3f); }},
            };

            std::vector<Tensor> before = soloOutputs(*model, xs, opts);
            for (const auto &[name, write] : writers) {
                write();
                auto fresh = makeModel(7);
                ModelRegistry::applyTo(*ModelRegistry::capture(*model), *fresh);
                const std::vector<Tensor> expected =
                    batchedOutputs(*fresh, xs, opts);
                std::vector<Tensor> solo, batched;
                if (n == 1) {
                    solo = soloOutputs(*model, xs, opts);
                    batched = batchedOutputs(*model, xs, opts);
                } else {
                    batched = batchedOutputs(*model, xs, opts);
                    solo = soloOutputs(*model, xs, opts);
                }
                bool changed = false;
                for (std::size_t i = 0; i < n; i++) {
                    changed = changed || !sameBits(solo[i], before[i]);
                    EXPECT_TRUE(sameBits(solo[i], expected[i]))
                        << name << " on " << simdBackendName(b)
                        << ": stale solo forward, batch " << n
                        << " sample " << i;
                    EXPECT_TRUE(sameBits(batched[i], expected[i]))
                        << name << " on " << simdBackendName(b)
                        << ": stale batched forward, batch " << n
                        << " sample " << i;
                }
                EXPECT_TRUE(changed)
                    << name << " on " << simdBackendName(b) << ", batch "
                    << n << ": output did not move";
                before = solo;
            }

            // Reads never repack: forwards, a capture and a checkpoint
            // save leave every parameter's version where it was.
            const std::vector<std::uint64_t> versions = paramVersions(*model);
            soloOutputs(*model, xs, opts);
            batchedOutputs(*model, xs, opts);
            ModelRegistry::capture(*model);
            saveParameters(path, model->paramSlots());
            EXPECT_EQ(paramVersions(*model), versions)
                << simdBackendName(b) << ", batch " << n;
        }
    }
    std::remove(path.c_str());
}

TEST(NodeClassifier, ProducesLogitsAndTrains)
{
    Rng rng(5);
    // Tiny model on tiny synthetic images: 2 classes for speed.
    SyntheticImageConfig img_cfg;
    img_cfg.channels = 1;
    img_cfg.height = 8;
    img_cfg.width = 8;
    img_cfg.numClasses = 2;
    img_cfg.noiseStddev = 0.05f;
    SyntheticImageDataset data(img_cfg, 23);

    NodeClassifier model(1, 4, 1, 1, 2, rng);
    Adam opt(model.paramSlots(), 3e-3);
    FixedFactorController ctrl;
    IvpOptions opts = quickOptions();

    auto accuracy_of = [&](int n) {
        int correct = 0;
        for (int i = 0; i < n; i++) {
            auto sample = data.sample(static_cast<std::size_t>(i % 2));
            auto result = model.forward(sample.image,
                                        ButcherTableau::rk23(), ctrl, opts);
            correct += argmax(result.logits) == sample.label;
        }
        return static_cast<double>(correct) / n;
    };

    double first_loss = 0.0, loss = 0.0;
    for (int iter = 0; iter < 30; iter++) {
        auto sample = data.sample(static_cast<std::size_t>(iter % 2));
        opt.zeroGrad();
        auto step =
            classifierTrainStep(model, sample.image, sample.label,
                                ButcherTableau::rk23(), ctrl, opts);
        if (iter == 0)
            first_loss = step.loss;
        loss = 0.9 * loss + 0.1 * step.loss;
        opt.clipGradNorm(5.0);
        opt.step();
        EXPECT_GT(step.forwardStats.fEvals, 0u);
        EXPECT_GT(step.backwardStats.backwardSteps, 0u);
    }
    EXPECT_LT(loss, first_loss) << "classifier loss did not improve";
    EXPECT_GE(accuracy_of(10), 0.5);
}

TEST(MemoryProfile, NodeVsResnetShapes)
{
    // Fig. 4(b): NODE inference a few times more memory than ResNet;
    // NODE training one to two orders of magnitude more accesses.
    NodeWorkloadProfile profile;
    profile.nEval = 16;
    profile.nTry = 2.5;
    const auto node_inf = nodeInferenceFootprint(profile);
    const auto node_train = nodeTrainingFootprint(profile);
    const auto res_inf = resnetInferenceFootprint(100);
    const auto res_train = resnetTrainingFootprint(100);

    const double size_ratio = node_inf.sizeMaps / res_inf.sizeMaps;
    EXPECT_GT(size_ratio, 2.0);
    EXPECT_LT(size_ratio, 5.0); // paper: 2.5x

    const double access_ratio =
        node_train.accessMaps / res_train.accessMaps;
    EXPECT_GT(access_ratio, 10.0);
    EXPECT_LT(access_ratio, 100.0); // paper: 41.5x

    // Training must cost more than inference on both sides.
    EXPECT_GT(node_train.accessMaps, node_inf.accessMaps);
    EXPECT_GT(res_train.accessMaps, res_inf.accessMaps);
}

} // namespace
} // namespace enode
