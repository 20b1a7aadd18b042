/**
 * @file
 * Tensor: shape handling, arithmetic, reductions, row windows, and the
 * write version.
 */

#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/hash.h"
#include "tensor/tensor.h"

namespace enode {
namespace {

TEST(Shape, BasicProperties)
{
    Shape s{2, 3, 4};
    EXPECT_EQ(s.rank(), 3u);
    EXPECT_EQ(s.numel(), 24u);
    EXPECT_EQ(s.dim(1), 3u);
    EXPECT_EQ(s.str(), "[2, 3, 4]");
    EXPECT_EQ(s, (Shape{2, 3, 4}));
    EXPECT_NE(s, (Shape{2, 3}));
}

TEST(Tensor, ConstructionAndFill)
{
    Tensor z(Shape{2, 2});
    EXPECT_EQ(z.sum(), 0.0);
    Tensor f = Tensor::full(Shape{3}, 2.5f);
    EXPECT_DOUBLE_EQ(f.sum(), 7.5);
    f.fill(-1.0f);
    EXPECT_DOUBLE_EQ(f.sum(), -3.0);
    EXPECT_TRUE(Tensor().empty());
}

TEST(Tensor, IndexingRowMajorNchw)
{
    Tensor t(Shape{2, 3, 4});
    t.at(1, 2, 3) = 5.0f;
    EXPECT_EQ(t.at((1 * 3 + 2) * 4 + 3), 5.0f);

    Tensor b(Shape{2, 2, 3, 4});
    b.at(1, 1, 2, 3) = 7.0f;
    EXPECT_EQ(b.at(((1 * 2 + 1) * 3 + 2) * 4 + 3), 7.0f);
}

TEST(Tensor, ArithmeticAndAxpy)
{
    Tensor a(Shape{4}, {1, 2, 3, 4});
    Tensor b(Shape{4}, {10, 20, 30, 40});
    Tensor c = a + b;
    EXPECT_EQ(c.at(2), 33.0f);
    c -= a;
    EXPECT_TRUE(Tensor::allClose(c, b));
    c = a * 2.0f;
    EXPECT_EQ(c.at(3), 8.0f);
    c.axpy(0.5f, b);
    EXPECT_EQ(c.at(0), 2.0f + 5.0f);
}

TEST(Tensor, ShapeMismatchPanics)
{
    Tensor a(Shape{3}), b(Shape{4});
    EXPECT_DEATH({ a += b; }, "shape");
}

TEST(Tensor, Reductions)
{
    Tensor t(Shape{2, 2}, {3, -4, 0, 0});
    EXPECT_DOUBLE_EQ(t.l2Norm(), 5.0);
    EXPECT_DOUBLE_EQ(t.maxAbs(), 4.0);
    EXPECT_DOUBLE_EQ(t.mean(), -0.25);
}

TEST(Tensor, RowWindowL2)
{
    // 1 channel, 4 rows, 2 cols.
    Tensor t(Shape{1, 4, 2}, {1, 1, 2, 2, 3, 3, 4, 4});
    EXPECT_NEAR(t.rowWindowL2(0, 1), std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(t.rowWindowL2(2, 4), std::sqrt(9 + 9 + 16 + 16.0), 1e-12);
    // Whole-map window equals the tensor norm.
    EXPECT_NEAR(t.rowWindowL2(0, 4), t.l2Norm(), 1e-12);
}

TEST(Tensor, RowWindowSumsToFullNormAcrossPartition)
{
    Rng rng(3);
    Tensor t = Tensor::randn(Shape{3, 8, 5}, rng, 1.0f);
    double sum_sq = 0.0;
    for (std::size_t r = 0; r < 8; r++) {
        const double n = t.rowWindowL2(r, r + 1);
        sum_sq += n * n;
    }
    EXPECT_NEAR(std::sqrt(sum_sq), t.l2Norm(), 1e-9);
}

TEST(Tensor, ReshapeAndSamples)
{
    Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor r = t.reshaped(Shape{3, 2});
    EXPECT_EQ(r.at(2 * 2 + 1), 6.0f);

    Tensor batch(Shape{2, 1, 2, 2});
    Tensor s(Shape{1, 2, 2}, {9, 8, 7, 6});
    batch.setSample(1, s);
    EXPECT_TRUE(Tensor::allClose(batch.sample(1), s));
    EXPECT_DOUBLE_EQ(batch.sample(0).sum(), 0.0);
}

TEST(Tensor, QuantizeFp16)
{
    Tensor t(Shape{2}, {1.0f, 1.0002f});
    t.quantizeFp16();
    EXPECT_EQ(t.at(0), 1.0f);
    EXPECT_EQ(t.at(1), 1.0f); // below half precision resolution
}

TEST(Tensor, AllCloseAndMaxAbsDiff)
{
    Tensor a(Shape{2}, {1.0f, 2.0f});
    Tensor b(Shape{2}, {1.0f, 2.00001f});
    EXPECT_TRUE(Tensor::allClose(a, b, 1e-4, 1e-4));
    EXPECT_FALSE(Tensor::allClose(a, b, 1e-7, 1e-9));
    EXPECT_NEAR(Tensor::maxAbsDiff(a, b), 1e-5, 1e-6);
    EXPECT_FALSE(Tensor::allClose(a, Tensor(Shape{3})));
}

TEST(Tensor, RandomFactoriesRespectDistribution)
{
    Rng rng(21);
    Tensor n = Tensor::randn(Shape{4, 32, 32}, rng, 2.0f);
    const double std_est =
        n.l2Norm() / std::sqrt(static_cast<double>(n.numel()));
    EXPECT_NEAR(std_est, 2.0, 0.15);
    Tensor u = Tensor::uniform(Shape{1024}, rng, -1.0f, 1.0f);
    EXPECT_LT(u.maxAbs(), 1.0 + 1e-6);
}

TEST(TensorWriteVersion, EveryMutatorAdvancesIt)
{
    Tensor src(Shape{2, 3, 4}, 0.5f);
    Tensor row(Shape{3, 4}, 0.25f);
    const std::pair<const char *, std::function<void(Tensor &)>> writers[] =
        {
            {"data()", [](Tensor &t) { t.data()[0] = 1.0f; }},
            {"at(i)", [](Tensor &t) { t.at(1) = 2.0f; }},
            {"at(c,h,w)", [](Tensor &t) { t.at(1, 2, 3) = 2.0f; }},
            {"fill", [](Tensor &t) { t.fill(3.0f); }},
            {"setSample", [&](Tensor &t) { t.setSample(1, row); }},
            {"copyFrom", [&](Tensor &t) { t.copyFrom(src); }},
            {"resize same numel", [](Tensor &t) { t.resize(Shape{24}); }},
            {"resize", [](Tensor &t) { t.resize(Shape{5}); }},
            {"reset", [](Tensor &t) { t.reset(); }},
            {"+=", [&](Tensor &t) { t += src; }},
            {"-=", [&](Tensor &t) { t -= src; }},
            {"*=", [](Tensor &t) { t *= 0.5f; }},
            {"scale", [](Tensor &t) { t.scale(2.0f); }},
            {"axpy", [&](Tensor &t) { t.axpy(0.5f, src); }},
            {"quantizeFp16", [](Tensor &t) { t.quantizeFp16(); }},
            {"copy assignment", [&](Tensor &t) { t = src; }},
            {"move assignment",
             [&](Tensor &t) { t = Tensor(src.shape(), 4.0f); }},
        };
    for (const auto &[name, write] : writers) {
        Tensor t(Shape{2, 3, 4}, 1.0f);
        const std::uint64_t before = t.writeVersion();
        write(t);
        EXPECT_GT(t.writeVersion(), before) << name;
    }

    Tensor nchw(Shape{2, 2, 3, 4});
    const std::uint64_t v = nchw.writeVersion();
    nchw.at(1, 1, 2, 3) = 5.0f;
    EXPECT_GT(nchw.writeVersion(), v) << "at(n,c,h,w)";
}

TEST(TensorWriteVersion, ConstReadsCopiesAndHashesLeaveIt)
{
    Rng rng(5);
    Tensor chw = Tensor::randn(Shape{2, 3, 4}, rng, 1.0f);
    Tensor nchw = Tensor::randn(Shape{2, 2, 3, 4}, rng, 1.0f);
    const std::uint64_t v3 = chw.writeVersion();
    const std::uint64_t v4 = nchw.writeVersion();
    const Tensor &c3 = chw;
    const Tensor &c4 = nchw;

    float sink = c3.data()[0] + c3.at(7) + c3.at(1, 2, 3);
    sink += c4.data()[0] + c4.at(9) + c4.at(1, 1, 2, 3);
    sink += static_cast<float>(c3.sum() + c3.l2Norm() + c3.maxAbs() +
                               c3.rowWindowL2(0, 2));
    EXPECT_TRUE(std::isfinite(sink));
    EXPECT_TRUE(c3.isFinite());
    EXPECT_EQ(c4.sample(1).numel(), 24u);
    EXPECT_EQ(c3.reshaped(Shape{24}).numel(), 24u);

    // Copying from the tensor, in every form, reads it through const.
    Tensor copied(chw);
    Tensor assigned;
    assigned = chw;
    Tensor filled;
    filled.copyFrom(chw);
    Tensor sum = chw + chw;
    Tensor batch(Shape{3, 2, 3, 4});
    batch.setSample(0, chw);
    Tensor acc = Tensor::zerosLike(chw);
    acc.axpy(0.5f, chw);
    acc += chw;
    acc -= chw;

    // Hashing reads through const too.
    const Hash128 h = hashTensor(chw);
    StreamHasher hasher;
    hashTensorInto(hasher, nchw);
    EXPECT_TRUE(h.valid());

    EXPECT_EQ(chw.writeVersion(), v3);
    EXPECT_EQ(nchw.writeVersion(), v4);
}

TEST(TensorWriteVersion, AssignmentLandsOnAVersionNeverHeldBefore)
{
    // Each assignment advances the destination's own count; it never
    // imports the source's, which may be any number at all.
    Tensor dst(Shape{4}, 1.0f);
    std::set<std::uint64_t> held{dst.writeVersion()};
    const auto expectNew = [&](const char *what) {
        EXPECT_TRUE(held.insert(dst.writeVersion()).second)
            << what << " returned to version " << dst.writeVersion();
    };

    Tensor behind(Shape{4}, 2.0f); // at a lower version than dst
    for (int i = 0; i < 3; i++)
        dst.fill(static_cast<float>(i));
    expectNew("fill");
    dst = behind;
    expectNew("copy assignment from a tensor behind");

    Tensor ahead(Shape{4}, 3.0f);
    for (int i = 0; i < 10; i++)
        ahead.at(0) = static_cast<float>(i);
    dst = ahead;
    expectNew("copy assignment from a tensor ahead");
    dst = std::move(ahead);
    expectNew("move assignment from a tensor ahead");
    dst = Tensor(Shape{4}, 4.0f);
    expectNew("move assignment from a fresh tensor");
    dst = Tensor(Shape{7}, 5.0f);
    expectNew("move assignment of another shape");

    // A copy or move construction starts at the source's version.
    const Tensor copy(dst);
    EXPECT_EQ(copy.writeVersion(), dst.writeVersion());
    const std::uint64_t v = dst.writeVersion();
    Tensor moved(std::move(dst));
    EXPECT_EQ(moved.writeVersion(), v);
}

} // namespace
} // namespace enode
