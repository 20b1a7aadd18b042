/**
 * @file
 * NN layers: every backward is checked against numerical gradients —
 * the foundation the ACA adjoint (and the unified core) rests on.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "nn/activation.h"
#include "nn/concat_time.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/pool.h"
#include "nn/sequential.h"

namespace enode {
namespace {

/**
 * Numerical gradient of sum(layer(x) * seed) w.r.t. x, compared to
 * layer.backward(seed).
 */
void
checkInputGradient(Layer &layer, const Tensor &x, Rng &rng,
                   double tol = 2e-2)
{
    Tensor seed = Tensor::randn(layer.outputShape(x.shape()), rng, 1.0f);
    layer.forward(x);
    Tensor analytic = layer.backward(seed);

    const double eps = 1e-2;
    double diff_sq = 0.0, fd_sq = 0.0;
    for (std::size_t i = 0; i < x.numel(); i++) {
        Tensor xp = x, xm = x;
        xp.at(i) += static_cast<float>(eps);
        xm.at(i) -= static_cast<float>(eps);
        double lp = 0.0, lm = 0.0;
        Tensor yp = layer.forward(xp);
        for (std::size_t k = 0; k < yp.numel(); k++)
            lp += static_cast<double>(yp.at(k)) * seed.at(k);
        Tensor ym = layer.forward(xm);
        for (std::size_t k = 0; k < ym.numel(); k++)
            lm += static_cast<double>(ym.at(k)) * seed.at(k);
        const double fd = (lp - lm) / (2.0 * eps);
        diff_sq += (fd - analytic.at(i)) * (fd - analytic.at(i));
        fd_sq += fd * fd;
    }
    EXPECT_LT(std::sqrt(diff_sq) / std::max(std::sqrt(fd_sq), 1e-8), tol);
}

/** Same for parameter gradients. */
void
checkParamGradients(Layer &layer, const Tensor &x, Rng &rng,
                    double tol = 2e-2)
{
    Tensor seed = Tensor::randn(layer.outputShape(x.shape()), rng, 1.0f);
    layer.zeroGrad();
    layer.forward(x);
    layer.backward(seed);

    const double eps = 1e-2;
    for (auto &slot : layer.paramSlots()) {
        double diff_sq = 0.0, fd_sq = 0.0;
        const std::size_t n = std::min<std::size_t>(slot.param->numel(), 24);
        for (std::size_t i = 0; i < n; i++) {
            const float saved = slot.param->at(i);
            auto eval = [&](float v) {
                slot.param->at(i) = v;
                Tensor y = layer.forward(x);
                double l = 0.0;
                for (std::size_t k = 0; k < y.numel(); k++)
                    l += static_cast<double>(y.at(k)) * seed.at(k);
                return l;
            };
            const double lp = eval(saved + static_cast<float>(eps));
            const double lm = eval(saved - static_cast<float>(eps));
            slot.param->at(i) = saved;
            const double fd = (lp - lm) / (2.0 * eps);
            diff_sq += (fd - slot.grad->at(i)) * (fd - slot.grad->at(i));
            fd_sq += fd * fd;
        }
        EXPECT_LT(std::sqrt(diff_sq) / std::max(std::sqrt(fd_sq), 1e-8),
                  tol)
            << slot.name;
    }
}

/** Number of positions where a and b differ in any bit. */
std::size_t
bitMismatches(const float *a, const float *b, std::size_t n)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < n; i++)
        bad += std::memcmp(a + i, b + i, sizeof(float)) != 0;
    return bad;
}

/** Three samples of the given shape, stacked, with different means and
 *  spreads. */
Tensor
spreadStack(const Shape &sample, Rng &rng)
{
    const float means[] = {-2.0f, 0.0f, 5.0f};
    const float spreads[] = {0.5f, 3.0f, 10.0f};
    Tensor xs(sample.prepended(3));
    for (std::size_t i = 0; i < 3; i++) {
        Tensor x = Tensor::randn(sample, rng, spreads[i]);
        for (std::size_t k = 0; k < x.numel(); k++)
            x.at(k) += means[i];
        xs.setSample(i, x);
    }
    return xs;
}

/**
 * Each row of layer.forwardBatched(xs) equals layer.forward() on that
 * sample bit for bit: a body that pooled statistics across the stack
 * fails this.
 */
void
expectRowsMatchForward(Layer &layer, const Tensor &xs)
{
    Tensor out;
    layer.forwardBatched(xs, out);
    for (std::size_t i = 0; i < xs.shape().dim(0); i++) {
        const Tensor row = out.sample(i);
        const Tensor solo = layer.forward(xs.sample(i));
        ASSERT_EQ(row.shape(), solo.shape()) << layer.name();
        EXPECT_EQ(bitMismatches(row.data(), solo.data(), row.numel()), 0u)
            << layer.name() << ", sample " << i;
    }
}

TEST(Conv2d, ForwardKnownValues)
{
    Rng rng(1);
    Conv2d conv(1, 1, 3, rng, /*with_bias=*/false);
    conv.weight().fill(1.0f);
    Tensor x = Tensor::ones(Shape{1, 3, 3});
    Tensor y = conv.forward(x);
    // Center pixel sees all 9 taps; corners see 4.
    EXPECT_FLOAT_EQ(y.at(0, 1, 1), 9.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0), 4.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1), 6.0f);
}

TEST(Conv2d, GradientsMatchFiniteDifferences)
{
    Rng rng(2);
    Conv2d conv(3, 4, 3, rng);
    Tensor x = Tensor::randn(Shape{3, 5, 6}, rng, 1.0f);
    checkInputGradient(conv, x, rng);
    checkParamGradients(conv, x, rng);
}

TEST(Conv2d, BackwardDataIsAdjointOfForward)
{
    // <conv(x), y> == <x, conv^T(y)> for bias-free convolution: the
    // transpose property the unified core exploits.
    Rng rng(3);
    Conv2d conv(2, 3, 3, rng, /*with_bias=*/false);
    Tensor x = Tensor::randn(Shape{2, 6, 5}, rng, 1.0f);
    Tensor y = Tensor::randn(Shape{3, 6, 5}, rng, 1.0f);
    const Tensor cx = convForward(x, conv.weight(), Tensor());
    const Tensor cty = convBackwardData(y, conv.weight());
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < cx.numel(); i++)
        lhs += static_cast<double>(cx.at(i)) * y.at(i);
    for (std::size_t i = 0; i < x.numel(); i++)
        rhs += static_cast<double>(x.at(i)) * cty.at(i);
    EXPECT_NEAR(lhs, rhs, 1e-2 * std::abs(lhs));
}

TEST(GroupNorm, NormalizesPerGroup)
{
    Rng rng(4);
    GroupNorm norm(4, 2);
    Tensor x = Tensor::randn(Shape{4, 6, 6}, rng, 3.0f);
    Tensor y = norm.forward(x);
    // With unit gamma and zero beta, each group has ~zero mean, ~unit
    // variance.
    for (std::size_t g = 0; g < 2; g++) {
        double sum = 0.0, sum_sq = 0.0;
        for (std::size_t c = g * 2; c < (g + 1) * 2; c++)
            for (std::size_t h = 0; h < 6; h++)
                for (std::size_t w = 0; w < 6; w++) {
                    sum += y.at(c, h, w);
                    sum_sq += static_cast<double>(y.at(c, h, w)) *
                              y.at(c, h, w);
                }
        const double n = 72.0;
        EXPECT_NEAR(sum / n, 0.0, 1e-4);
        EXPECT_NEAR(sum_sq / n, 1.0, 1e-3);
    }
    // Stacked: each sample is normalized by its own statistics.
    expectRowsMatchForward(norm, spreadStack(Shape{4, 6, 6}, rng));
}

TEST(GroupNorm, GradientsMatchFiniteDifferences)
{
    Rng rng(5);
    GroupNorm norm(4, 2);
    Tensor x = Tensor::randn(Shape{4, 4, 4}, rng, 1.0f);
    checkInputGradient(norm, x, rng, 3e-2);
    checkParamGradients(norm, x, rng, 3e-2);
}

TEST(Activations, ForwardAndGradients)
{
    Rng rng(6);
    Tensor x = Tensor::randn(Shape{24}, rng, 1.5f);
    {
        ReLU relu;
        Tensor y = relu.forward(x);
        for (std::size_t i = 0; i < y.numel(); i++)
            EXPECT_GE(y.at(i), 0.0f);
        checkInputGradient(relu, x, rng);
    }
    {
        Tanh tanh_layer;
        checkInputGradient(tanh_layer, x, rng);
    }
}

TEST(Linear, GradientsMatchFiniteDifferences)
{
    Rng rng(7);
    Linear lin(6, 4, rng);
    Tensor x = Tensor::randn(Shape{6}, rng, 1.0f);
    checkInputGradient(lin, x, rng);
    checkParamGradients(lin, x, rng);
}

TEST(Linear, ForwardsAndBackwardLeaveTheWeightVersion)
{
    // Linear repacks its panels when the weight's write version moves,
    // so its own reads must not move it: forward, backward and
    // forwardBatched read every parameter through const.
    Rng rng(9);
    Linear lin(17, 64, rng);
    const Tensor x = Tensor::randn(Shape{17}, rng, 1.0f);
    const Tensor xs = Tensor::randn(Shape{3, 17}, rng, 1.0f);
    const Tensor g = Tensor::randn(Shape{64}, rng, 1.0f);
    std::vector<std::uint64_t> versions;
    for (const ParamSlot &slot : lin.paramSlots())
        versions.push_back(slot.param->writeVersion());

    Tensor out;
    for (int round = 0; round < 2; round++) {
        lin.forward(x);
        lin.backward(g);
        lin.forwardBatched(xs, out);
        const auto slots = lin.paramSlots();
        for (std::size_t s = 0; s < slots.size(); s++)
            EXPECT_EQ(slots[s].param->writeVersion(), versions[s])
                << slots[s].name << ", round " << round;
    }
}

TEST(Linear, BackwardBitwiseMatchesScalarLoopsOnEveryBackend)
{
    // The backward runs on the elementwise axpy kernel: per-op rounding
    // and the same per-element order as the plain loops below, so the
    // weight, bias and input gradients equal them bit for bit on every
    // backend. Weight and bias gradients accumulate onto non-zero
    // values, as they do across a training batch.
    for (std::size_t in : {1, 3, 17, 64}) {
        for (std::size_t out : {1, 16, 64}) {
            for (bool with_bias : {false, true}) {
                Rng rng(in * 1000 + out * 10 + with_bias);
                Linear lin(in, out, rng, with_bias);
                const Tensor x = Tensor::randn(Shape{in}, rng, 1.0f);
                const Tensor g = Tensor::randn(Shape{out}, rng, 1.0f);
                const Tensor gw0 = Tensor::randn(Shape{out, in}, rng, 1.0f);
                const Tensor gb0 = Tensor::randn(Shape{out}, rng, 1.0f);

                Tensor gw = gw0, gb = gb0, gi(Shape{in});
                const float *w = lin.weight().data();
                const float *xd = x.data();
                const float *gd = g.data();
                for (std::size_t o = 0; o < out; o++) {
                    for (std::size_t i = 0; i < in; i++)
                        gw.data()[o * in + i] += gd[o] * xd[i];
                    gb.data()[o] += gd[o];
                }
                for (std::size_t i = 0; i < in; i++) {
                    float acc = 0.0f;
                    for (std::size_t o = 0; o < out; o++)
                        acc += w[o * in + i] * gd[o];
                    gi.data()[i] = acc;
                }

                for (SimdBackend backend : availableSimdBackends()) {
                    ScopedSimdBackend force(backend);
                    ASSERT_TRUE(force.applied());
                    const auto slots = lin.paramSlots();
                    ASSERT_EQ(slots.size(), with_bias ? 2u : 1u);
                    slots[0].grad->copyFrom(gw0);
                    if (with_bias)
                        slots[1].grad->copyFrom(gb0);
                    lin.forward(x);
                    const Tensor got = lin.backward(g);

                    const std::string where =
                        std::string(simdBackendName(backend)) + " in=" +
                        std::to_string(in) + " out=" + std::to_string(out) +
                        " bias=" + std::to_string(with_bias);
                    ASSERT_EQ(got.numel(), in) << where;
                    EXPECT_EQ(bitMismatches(slots[0].grad->data(), gw.data(),
                                            in * out),
                              0u)
                        << "weight grad, " << where;
                    if (with_bias) {
                        EXPECT_EQ(bitMismatches(slots[1].grad->data(),
                                                gb.data(), out),
                                  0u)
                            << "bias grad, " << where;
                    }
                    EXPECT_EQ(bitMismatches(got.data(), gi.data(), in), 0u)
                        << "input grad, " << where;
                }
            }
        }
    }
}

TEST(Pooling, ForwardAndGradients)
{
    Rng rng(8);
    {
        GlobalAvgPool pool;
        Tensor x = Tensor::ones(Shape{3, 4, 4});
        Tensor y = pool.forward(x);
        EXPECT_EQ(y.shape(), Shape{3});
        EXPECT_FLOAT_EQ(y.at(1), 1.0f);
        Tensor xr = Tensor::randn(Shape{3, 4, 4}, rng, 1.0f);
        checkInputGradient(pool, xr, rng);
        // Stacked: each sample is averaged on its own.
        expectRowsMatchForward(pool, spreadStack(Shape{3, 4, 4}, rng));
    }
}

TEST(ConcatTime, AppendsAndDropsTimeFeature)
{
    ConcatTime ct;
    ct.setTime(0.75);
    Tensor v(Shape{3}, {1, 2, 3});
    Tensor out = ct.forward(v);
    EXPECT_EQ(out.shape(), Shape{4});
    EXPECT_FLOAT_EQ(out.at(3), 0.75f);
    Tensor grad = ct.backward(Tensor::ones(Shape{4}));
    EXPECT_EQ(grad.shape(), Shape{3});

    Tensor img = Tensor::ones(Shape{2, 3, 3});
    Tensor out3 = ct.forward(img);
    EXPECT_EQ(out3.shape(), (Shape{3, 3, 3}));
    EXPECT_FLOAT_EQ(out3.at(2, 1, 1), 0.75f);
}

TEST(Sequential, ChainsForwardBackwardAndNamesParams)
{
    Rng rng(9);
    Sequential seq;
    seq.add(std::make_unique<Linear>(4, 8, rng));
    seq.add(std::make_unique<Tanh>());
    seq.add(std::make_unique<Linear>(8, 2, rng));
    Tensor x = Tensor::randn(Shape{4}, rng, 1.0f);
    EXPECT_EQ(seq.forward(x).shape(), Shape{2});
    EXPECT_EQ(seq.outputShape(Shape{4}), Shape{2});
    checkInputGradient(seq, x, rng);

    auto slots = seq.paramSlots();
    EXPECT_EQ(slots.size(), 4u);
    EXPECT_EQ(slots[0].name, "layer0.weight");
    EXPECT_GT(seq.paramCount(), 0u);
}

TEST(EmbeddedNet, EvalCountsAndVjpConsistency)
{
    Rng rng(10);
    auto net = EmbeddedNet::makeMlp(3, 8, 1, rng);
    Tensor h = Tensor::randn(Shape{3}, rng, 1.0f);
    Tensor f0 = net->eval(0.0, h);
    Tensor f1 = net->eval(0.9, h);
    EXPECT_EQ(net->evalCount(), 2u);
    // Time must actually influence the output.
    EXPECT_GT(Tensor::maxAbsDiff(f0, f1), 1e-6);

    net->zeroGrad();
    net->vjp(Tensor::ones(Shape{3}));
    EXPECT_EQ(net->vjpCount(), 1u);
    double grad_norm = 0.0;
    for (auto &slot : net->paramSlots())
        grad_norm += slot.grad->l2Norm();
    EXPECT_GT(grad_norm, 0.0);
}

TEST(EmbeddedNet, ConvNetPreservesShape)
{
    Rng rng(11);
    auto net = EmbeddedNet::makeConvNet(8, 4, rng);
    Tensor h = Tensor::randn(Shape{8, 6, 6}, rng, 1.0f);
    EXPECT_EQ(net->eval(0.3, h).shape(), h.shape());
    auto streamable = EmbeddedNet::makeStreamableConvNet(4, 2, rng);
    Tensor h2 = Tensor::randn(Shape{4, 6, 6}, rng, 1.0f);
    EXPECT_EQ(streamable->eval(0.3, h2).shape(), h2.shape());
}

} // namespace
} // namespace enode
