/**
 * @file
 * Library extensions beyond the paper's core: parameter checkpointing,
 * the PI stepsize controller (history-based ablation against
 * slope-adaptive), and augmented NODEs (the paper's Ref. [7]).
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aca_trainer.h"
#include "core/node_model.h"
#include "core/slope_adaptive.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace enode {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TEST(Serialize, RoundTripRestoresExactParameters)
{
    Rng rng(1);
    auto model = NodeModel::makeMlp(2, 3, 8, 1, rng);
    const std::string path = tempPath("model.enod");
    saveParameters(path, model->paramSlots());

    // Clone the architecture with different random weights, then load.
    Rng rng2(999);
    auto restored = NodeModel::makeMlp(2, 3, 8, 1, rng2);
    loadParameters(path, restored->paramSlots());

    auto a = model->paramSlots();
    auto b = restored->paramSlots();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++)
        EXPECT_LT(Tensor::maxAbsDiff(*a[i].param, *b[i].param), 0.0f + 1e-12)
            << a[i].name;
}

TEST(Serialize, RestoredModelPredictsIdentically)
{
    Rng rng(2);
    auto model = NodeModel::makeMlp(1, 4, 16, 1, rng);
    Tensor x = Tensor::randn(Shape{4}, rng, 0.5f);
    IvpOptions opts;
    opts.tolerance = 1e-4;
    opts.initialDt = 0.1;

    FixedFactorController c1;
    auto before = model->forward(x, ButcherTableau::rk23(), c1, opts);

    const std::string path = tempPath("predict.enod");
    saveParameters(path, model->paramSlots());
    Rng rng2(777);
    auto restored = NodeModel::makeMlp(1, 4, 16, 1, rng2);
    loadParameters(path, restored->paramSlots());

    FixedFactorController c2;
    auto after = restored->forward(x, ButcherTableau::rk23(), c2, opts);
    EXPECT_LT(Tensor::maxAbsDiff(before.output, after.output), 1e-7);
}

TEST(Serialize, ShapeMismatchIsFatal)
{
    Rng rng(3);
    auto model = NodeModel::makeMlp(1, 3, 8, 1, rng);
    const std::string path = tempPath("mismatch.enod");
    saveParameters(path, model->paramSlots());

    auto wider = NodeModel::makeMlp(1, 3, 16, 1, rng);
    EXPECT_DEATH({ loadParameters(path, wider->paramSlots()); },
                 "mismatch|parameters");
}

TEST(Serialize, MissingFileIsFatal)
{
    Rng rng(4);
    auto model = NodeModel::makeMlp(1, 3, 8, 1, rng);
    EXPECT_DEATH(
        { loadParameters("/nonexistent/path/x.enod",
                         model->paramSlots()); },
        "cannot open");
}

TEST(Serialize, CorruptMagicIsFatal)
{
    const std::string path = tempPath("corrupt.enod");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("JUNKJUNKJUNK", f);
        std::fclose(f);
    }
    Rng rng(5);
    auto model = NodeModel::makeMlp(1, 3, 8, 1, rng);
    EXPECT_DEATH({ loadParameters(path, model->paramSlots()); },
                 "not an eNODE checkpoint");
}

/**
 * Corrupt checkpoints: each overwrites one field of the first
 * parameter record of a valid file. The header (magic, version, slot
 * count) is 12 bytes; the record is name length (u32), name, rank (u32)
 * and extents (u64 each). Every case must end through the loader's own
 * fatal error (exit 1, naming the file and the field), never through an
 * abort or an allocation the file sized. The values stay small.
 */
class CorruptCheckpoint : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t kNameLenAt = 12;

    void
    SetUp() override
    {
        Rng rng(6);
        model_ = NodeModel::makeMlp(1, 3, 8, 1, rng);
        nameLen_ = model_->paramSlots()[0].name.size();
    }

    std::string
    save(const char *file)
    {
        const std::string path = tempPath(file);
        saveParameters(path, model_->paramSlots());
        return path;
    }

    /** Overwrite the bytes at `offset` of the file with `value`. */
    template <typename T>
    static void
    patch(const std::string &path, std::uint64_t offset, T value)
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(static_cast<std::streamoff>(offset));
        f.write(reinterpret_cast<const char *>(&value), sizeof(T));
        ASSERT_TRUE(f.good());
    }

    std::unique_ptr<NodeModel> model_;
    std::uint64_t nameLen_ = 0;
};

TEST_F(CorruptCheckpoint, NameLengthPastTheEndExits)
{
    const std::string path = save("name_len.enod");
    const std::uint64_t left =
        std::filesystem::file_size(path) - (kNameLenAt + 4);
    patch(path, kNameLenAt, static_cast<std::uint32_t>(left + 1));
    EXPECT_EXIT(loadParameters(path, model_->paramSlots()),
                ::testing::ExitedWithCode(1),
                "name_len\\.enod.*name length");
}

TEST_F(CorruptCheckpoint, RankAboveMaxRankExits)
{
    const std::string path = save("rank.enod");
    patch(path, kNameLenAt + 4 + nameLen_, std::uint32_t{5});
    EXPECT_EXIT(loadParameters(path, model_->paramSlots()),
                ::testing::ExitedWithCode(1), "rank\\.enod.*rank 5");
}

TEST_F(CorruptCheckpoint, ZeroExtentExits)
{
    const std::string path = save("extent.enod");
    patch(path, kNameLenAt + 8 + nameLen_, std::uint64_t{0});
    EXPECT_EXIT(loadParameters(path, model_->paramSlots()),
                ::testing::ExitedWithCode(1),
                "extent\\.enod.*extent 0 is 0");
}

/** Smooth fast/slow decay, for controller comparisons. */
class BumpDecay : public OdeFunction
{
  public:
    Tensor
    eval(double t, const Tensor &h) override
    {
        countEval();
        const double bump = (t - 0.5) / 0.08;
        const float rate =
            static_cast<float>(0.5 + 19.5 * std::exp(-bump * bump));
        return h * -rate;
    }
};

TEST(PiController, MeetsToleranceAndAdapts)
{
    BumpDecay f;
    PiController ctrl(3);
    IvpOptions opts;
    opts.tolerance = 1e-7;
    opts.initialDt = 0.02;
    auto res = solveIvp(f, Tensor::ones(Shape{1}), 0.0, 1.0,
                        ButcherTableau::rk23(), ctrl, opts);
    const double truth =
        std::exp(-(0.5 + 19.5 * 0.08 * std::sqrt(3.14159265358979)));
    EXPECT_NEAR(res.yFinal.at(0), truth, 5e-4);
    EXPECT_GT(res.stats.evalPoints, 10u);
}

TEST(PiController, FewerRejectionsThanProportionalControl)
{
    // The PI term damps the grow/reject oscillation: rejection *rate*
    // should not exceed the plain proportional controller's.
    IvpOptions opts;
    opts.tolerance = 1e-7;
    opts.initialDt = 0.02;

    BumpDecay f1;
    PressTeukolskyController pt(3);
    auto pt_res = solveIvp(f1, Tensor::ones(Shape{1}), 0.0, 4.0,
                           ButcherTableau::rk23(), pt, opts);

    BumpDecay f2;
    PiController pi(3);
    auto pi_res = solveIvp(f2, Tensor::ones(Shape{1}), 0.0, 4.0,
                           ButcherTableau::rk23(), pi, opts);

    const double pt_rate = static_cast<double>(pt_res.stats.rejected) /
                           pt_res.stats.trials;
    const double pi_rate = static_cast<double>(pi_res.stats.rejected) /
                           pi_res.stats.trials;
    EXPECT_LE(pi_rate, pt_rate + 0.02);
}

TEST(PiController, ComparableTrialsToSlopeAdaptive)
{
    // Ablation: the error-magnitude history (PI) and the accept/reject
    // history (slope-adaptive) both beat the no-growth conventional
    // search; they should land in the same ballpark.
    IvpOptions opts;
    opts.tolerance = 1e-7;
    opts.initialDt = 0.02;

    auto trials_with = [&](StepController &ctrl) {
        BumpDecay f;
        return solveIvp(f, Tensor::ones(Shape{1}), 0.0, 4.0,
                        ButcherTableau::rk23(), ctrl, opts)
            .stats.trials;
    };
    FixedFactorController conventional;
    SlopeAdaptiveController slope;
    PiController pi(3);
    const auto conv = trials_with(conventional);
    const auto sa = trials_with(slope);
    const auto pit = trials_with(pi);
    EXPECT_LT(sa, conv);
    EXPECT_LT(pit, conv);
    EXPECT_LT(std::max(sa, pit), 3 * std::min(sa, pit));
}

TEST(AugmentedNode, LiftAndTruncate)
{
    Tensor x(Shape{2}, {1.0f, -2.0f});
    Tensor lifted = augmentState(x, 3);
    EXPECT_EQ(lifted.shape(), Shape{5});
    EXPECT_FLOAT_EQ(lifted.at(1), -2.0f);
    EXPECT_FLOAT_EQ(lifted.at(4), 0.0f);
    Tensor back = truncateState(lifted, 2);
    EXPECT_TRUE(Tensor::allClose(back, x));
}

TEST(AugmentedNode, LearnsAReflectionPlainNodeStrugglesWith)
{
    // x -> -x in 1-D requires trajectories to cross: impossible for a
    // 1-D ODE flow (flows are monotone), straightforward once the state
    // is augmented (Dupont et al.). Train both and compare.
    IvpOptions opts;
    opts.tolerance = 1e-3;
    opts.initialDt = 0.1;

    auto train = [&](NodeModel &model, std::size_t aug) {
        Rng data_rng(31);
        Adam opt(model.paramSlots(), 1e-2);
        FixedFactorController ctrl;
        for (int iter = 0; iter < 150; iter++) {
            const float v =
                static_cast<float>(data_rng.uniform(-1.0, 1.0));
            Tensor x0 = augmentState(Tensor(Shape{1}, {v}), aug);
            Tensor target = augmentState(Tensor(Shape{1}, {-v}), aug);
            opt.zeroGrad();
            regressionTrainStep(model, x0, target,
                                ButcherTableau::rk23(), ctrl, opts);
            opt.clipGradNorm(5.0);
            opt.step();
        }
        // Test error on the original coordinate only.
        double err = 0.0;
        Rng test_rng(77);
        for (int i = 0; i < 16; i++) {
            const float v =
                static_cast<float>(test_rng.uniform(-1.0, 1.0));
            FixedFactorController c2;
            auto out = model.forward(
                augmentState(Tensor(Shape{1}, {v}), aug),
                ButcherTableau::rk23(), c2, opts);
            err += std::abs(out.output.at(0) + v);
        }
        return err / 16.0;
    };

    Rng rng(11);
    auto plain = NodeModel::makeMlp(1, 1, 24, 1, rng);
    auto augmented = NodeModel::makeAugmentedMlp(1, 1, 2, 24, 1, rng);
    const double plain_err = train(*plain, 0);
    const double aug_err = train(*augmented, 2);
    EXPECT_LT(aug_err, 0.5 * plain_err)
        << "augmentation should break the flow topology barrier";
    EXPECT_LT(aug_err, 0.15);
}

} // namespace
} // namespace enode
