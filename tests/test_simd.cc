/**
 * @file
 * SIMD backend layer: dispatch-probe sanity, the ENODE_SIMD override,
 * and every kernel's equivalence contract against the scalar oracle.
 *
 * The contracts under test (see DESIGN.md "SIMD backend & dispatch"):
 *  - elementwise kernels and the fixed-lane reductions (16-float dot,
 *    8-double sum of squares) are *bitwise identical* across backends,
 *    at every size including ragged tails;
 *  - every matvecPanels row equals the per-row dot plus bias bitwise,
 *    storing nothing past the last row;
 *  - tanh is bitwise identical across backends, odd, maps NaN to NaN
 *    and +-inf to +-1, and stays within a pinned error of std::tanh;
 *  - the fixed-lane reductions sit within a documented reduction-order
 *    tolerance of a plain serial sum;
 *  - allFinite is exact; the fp16 conversions are bitwise against the
 *    software Fp16 reference for every non-NaN input (NaNs must stay
 *    NaN, payload unspecified on hardware paths).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/fp16.h"
#include "common/simd.h"
#include "common/simd_internal.h"

namespace enode {
namespace {

/** Sizes chosen to straddle every backend's vector width and tail. */
const std::size_t kSizes[] = {0,  1,  2,  3,  5,  7,  8,  9,  15, 16,
                              17, 23, 31, 32, 33, 48, 63, 64, 67, 100};

/** Deterministic mixed-magnitude test data: the adversarial float set. */
std::vector<float>
testData(std::size_t n, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
    std::vector<float> out(n);
    for (std::size_t i = 0; i < n; i++) {
        switch (i % 7) {
        case 0:
            out[i] = unit(rng);
            break;
        case 1:
            out[i] = unit(rng) * 1e30f; // huge
            break;
        case 2:
            out[i] = unit(rng) * 1e-30f; // tiny
            break;
        case 3:
            out[i] = unit(rng) * 1e-42f; // subnormal territory
            break;
        case 4:
            out[i] = 0.0f;
            break;
        case 5:
            out[i] = -0.0f;
            break;
        default:
            out[i] = unit(rng) * 65000.0f; // near the fp16 edge
            break;
        }
    }
    return out;
}

bool
bitwiseEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

std::vector<SimdBackend>
vectorBackends()
{
    std::vector<SimdBackend> out;
    for (SimdBackend b : availableSimdBackends()) {
        if (b != SimdBackend::Scalar)
            out.push_back(b);
    }
    return out;
}

TEST(SimdDispatch, ProbeSanity)
{
    const auto available = availableSimdBackends();
    ASSERT_FALSE(available.empty());
    EXPECT_EQ(available.front(), SimdBackend::Scalar)
        << "scalar must always be available";

    const SimdBackend active = activeSimdBackend();
    EXPECT_TRUE(simdBackendSupported(active));
    EXPECT_TRUE(simdBackendCompiled(active));

    const SimdOps &ops = simdOps();
    EXPECT_EQ(ops.backend, active);
    EXPECT_STREQ(ops.name, simdBackendName(active));
    EXPECT_GE(ops.laneWidth, 1u);
    EXPECT_LE(ops.laneWidth, 16u);
}

TEST(SimdDispatch, ParseBackendNames)
{
    EXPECT_EQ(parseSimdBackendName("scalar"), SimdBackend::Scalar);
    EXPECT_EQ(parseSimdBackendName("avx2"), SimdBackend::Avx2);
    EXPECT_EQ(parseSimdBackendName("AVX512"), SimdBackend::Avx512);
    EXPECT_EQ(parseSimdBackendName("Neon"), SimdBackend::Neon);
    EXPECT_EQ(parseSimdBackendName("sse9"), std::nullopt);
    EXPECT_EQ(parseSimdBackendName(""), std::nullopt);
}

TEST(SimdDispatch, ScopedOverrideAppliesAndRestores)
{
    const SimdBackend before = activeSimdBackend();
    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        EXPECT_EQ(activeSimdBackend(), b);
        EXPECT_STREQ(simdOps().name, simdBackendName(b));
    }
    EXPECT_EQ(activeSimdBackend(), before);
}

TEST(SimdDispatch, SetRejectsUnsupportedBackend)
{
    const SimdBackend before = activeSimdBackend();
    for (SimdBackend b : {SimdBackend::Neon, SimdBackend::Avx2,
                          SimdBackend::Avx512}) {
        if (!simdBackendSupported(b)) {
            EXPECT_FALSE(setSimdBackend(b));
            EXPECT_EQ(activeSimdBackend(), before);
        }
    }
}

TEST(SimdDispatch, EnvOverrideForcesBackend)
{
    // resetSimdBackend() re-runs the same selection as process startup,
    // so the env var can be exercised without re-execing the binary.
    ASSERT_EQ(setenv("ENODE_SIMD", "scalar", 1), 0);
    resetSimdBackend();
    EXPECT_EQ(activeSimdBackend(), SimdBackend::Scalar);

    // Nonsense values are ignored (with a warning): probe default wins.
    ASSERT_EQ(setenv("ENODE_SIMD", "quantum", 1), 0);
    resetSimdBackend();
    const SimdBackend probed = activeSimdBackend();
    EXPECT_TRUE(simdBackendSupported(probed));

    ASSERT_EQ(unsetenv("ENODE_SIMD"), 0);
    resetSimdBackend();
    EXPECT_EQ(activeSimdBackend(), probed);
}

// ---------------------------------------------------------------------------
// Bitwise cross-backend equivalence, scalar as the oracle.
// ---------------------------------------------------------------------------

class SimdKernelEquivalence : public ::testing::Test
{
  protected:
    /**
     * Run `kernel` under the scalar backend and under `backend`, and
     * require bitwise-identical float output.
     */
    template <typename Kernel>
    void
    expectBitwiseAcrossBackends(const Kernel &kernel)
    {
        for (SimdBackend b : vectorBackends()) {
            for (std::size_t n : kSizes) {
                std::vector<float> scalarOut;
                {
                    ScopedSimdBackend forced(SimdBackend::Scalar);
                    ASSERT_TRUE(forced.applied());
                    scalarOut = kernel(simdOps(), n);
                }
                std::vector<float> vectorOut;
                {
                    ScopedSimdBackend forced(b);
                    ASSERT_TRUE(forced.applied());
                    vectorOut = kernel(simdOps(), n);
                }
                EXPECT_TRUE(bitwiseEqual(scalarOut, vectorOut))
                    << simdBackendName(b) << " diverged from scalar at n="
                    << n;
            }
        }
    }
};

TEST_F(SimdKernelEquivalence, Axpy)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> y = testData(n, 11);
        const std::vector<float> x = testData(n, 13);
        ops.axpy(y.data(), 1.7f, x.data(), n);
        return y;
    });
}

TEST_F(SimdKernelEquivalence, Scale)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> y = testData(n, 17);
        ops.scale(y.data(), -0.37f, n);
        return y;
    });
}

TEST_F(SimdKernelEquivalence, AddSubInPlace)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> y = testData(n, 19);
        const std::vector<float> x = testData(n, 23);
        ops.addInPlace(y.data(), x.data(), n);
        ops.subInPlace(y.data(), x.data(), n);
        return y;
    });
}

TEST_F(SimdKernelEquivalence, Copy)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        const std::vector<float> x = testData(n, 29);
        std::vector<float> y(n, -1.0f);
        ops.copy(y.data(), x.data(), n);
        return y;
    });
}

TEST_F(SimdKernelEquivalence, RowTaps3)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> acc = testData(n, 31);
        const std::vector<float> row = testData(n + 2, 37);
        const float w[3] = {0.5f, -1.25f, 2.0f};
        ops.rowTaps3(acc.data(), row.data(), w, n);
        return acc;
    });
}

TEST_F(SimdKernelEquivalence, RowTaps3x4)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> acc = testData(4 * n, 41);
        const std::vector<float> row = testData(n + 2, 43);
        const float w0[3] = {0.5f, -1.25f, 2.0f};
        const float w1[3] = {-0.75f, 0.1f, 1.5f};
        const float w2[3] = {3.0f, -2.0f, 0.25f};
        const float w3[3] = {0.0f, 1.0f, -1.0f};
        ops.rowTaps3x4(acc.data(), row.data(), w0, w1, w2, w3, n);
        return acc;
    });
}

TEST_F(SimdKernelEquivalence, AccumDot16LanesAndTail)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        const std::vector<float> a = testData(n, 47);
        const std::vector<float> b = testData(n, 53);
        std::vector<float> state(17);
        for (std::size_t j = 0; j < 17; j++)
            state[j] = 0.01f * static_cast<float>(j); // nonzero carry-in
        ops.accumDot16(state.data(), &state[16], a.data(), b.data(), n);
        return state;
    });
}

TEST_F(SimdKernelEquivalence, DotIsBitwiseUnderFixedLaneContract)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        const std::vector<float> a = testData(n, 59);
        const std::vector<float> b = testData(n, 61);
        return std::vector<float>{ops.dot(a.data(), b.data(), n)};
    });
}

/** Inputs at tanh's branch points, specials, and the subnormal range. */
std::vector<float>
tanhEdgeInputs()
{
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> out = {0.0f,
                              -0.0f,
                              inf,
                              -inf,
                              std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::denorm_min(),
                              std::numeric_limits<float>::min(),
                              std::numeric_limits<float>::max(),
                              1e-30f,
                              1e-42f};
    // A few ulps either side of the clamp and of the |x| < 4e-4 branch.
    for (float edge : {7.90531110763549805f, 4e-4f, 1.0f}) {
        float lo = edge, hi = edge;
        for (int k = 0; k < 4; k++) {
            out.push_back(lo);
            out.push_back(hi);
            lo = std::nextafter(lo, 0.0f);
            hi = std::nextafter(hi, inf);
        }
    }
    const std::size_t positive = out.size();
    for (std::size_t i = 0; i < positive; i++)
        out.push_back(-out[i]);
    return out;
}

TEST_F(SimdKernelEquivalence, Tanh)
{
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        const std::vector<float> x = testData(n, 97);
        std::vector<float> y(n, -1.0f);
        ops.tanh(y.data(), x.data(), n);
        return y;
    });
    // In place, at a scale where every branch of the approximation runs.
    expectBitwiseAcrossBackends([](const SimdOps &ops, std::size_t n) {
        std::vector<float> y = testData(n, 101);
        for (std::size_t i = 0; i < n; i++)
            y[i] = y[i] * 1e-29f + static_cast<float>(i % 23) - 11.0f;
        ops.tanh(y.data(), y.data(), n);
        return y;
    });
}

TEST_F(SimdKernelEquivalence, TanhEdgeInputs)
{
    const std::vector<float> x = tanhEdgeInputs();
    std::vector<float> scalarOut(x.size());
    {
        ScopedSimdBackend forced(SimdBackend::Scalar);
        ASSERT_TRUE(forced.applied());
        simdOps().tanh(scalarOut.data(), x.data(), x.size());
    }
    for (SimdBackend b : vectorBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        // Every alignment of the edge set against the vector width, so
        // each input also goes through the padded tail.
        for (std::size_t offset = 0; offset < 17; offset++) {
            std::vector<float> y(x.size() - offset);
            simdOps().tanh(y.data(), x.data() + offset, y.size());
            for (std::size_t i = 0; i < y.size(); i++)
                EXPECT_EQ(simd_detail::f32Bits(y[i]),
                          simd_detail::f32Bits(scalarOut[offset + i]))
                    << simdBackendName(b) << " tanh(" << x[offset + i]
                    << ") diverged from scalar";
        }
    }
}

TEST(SimdTanh, OddNanAndInfinity)
{
    std::vector<float> x = tanhEdgeInputs();
    for (int i = 0; i < 4000; i++)
        x.push_back(std::ldexp(static_cast<float>(i % 97) + 0.37f,
                               i % 40 - 36));
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; i++)
        x.push_back(-x[i]);

    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        std::vector<float> y(x.size());
        simdOps().tanh(y.data(), x.data(), x.size());
        for (std::size_t i = 0; i < n; i++) {
            if (std::isnan(x[i])) {
                EXPECT_TRUE(std::isnan(y[i]) && std::isnan(y[n + i]))
                    << simdBackendName(b);
                continue;
            }
            EXPECT_EQ(simd_detail::f32Bits(y[n + i]),
                      simd_detail::f32Bits(-y[i]))
                << simdBackendName(b) << " tanh(-x) != -tanh(x) at "
                << x[i];
            EXPECT_LE(std::fabs(y[i]), 1.0f) << simdBackendName(b);
            if (std::isinf(x[i])) {
                EXPECT_EQ(y[i], std::copysign(1.0f, x[i]))
                    << simdBackendName(b);
            }
        }
    }
}

/** Largest distance in representable floats between y and tanh(x). */
struct TanhError
{
    std::uint32_t ulps = 0;
    double abs = 0.0;
    float worstX = 0.0f;
};

TanhError
tanhErrorOverSweep(float from, float to, std::uint32_t stride)
{
    std::vector<float> x;
    for (std::uint32_t u = simd_detail::f32Bits(from);
         u <= simd_detail::f32Bits(to); u += stride)
        x.push_back(simd_detail::f32FromBits(u));
    std::vector<float> y(x.size());
    simdOps().tanh(y.data(), x.data(), x.size());
    TanhError err;
    for (std::size_t i = 0; i < x.size(); i++) {
        const double exact = std::tanh(static_cast<double>(x[i]));
        const std::uint32_t a = simd_detail::f32Bits(y[i]);
        const std::uint32_t b =
            simd_detail::f32Bits(static_cast<float>(exact));
        const std::uint32_t d = a > b ? a - b : b - a;
        if (d > err.ulps) {
            err.ulps = d;
            err.worstX = x[i];
        }
        err.abs = std::max(err.abs,
                           std::fabs(static_cast<double>(y[i]) - exact));
    }
    return err;
}

TEST(SimdTanh, WithinPinnedErrorOfStdTanh)
{
    // tanh is the one kernel whose result is not the libm value: a
    // clamped 13/6 rational approximation. Its error bound is part of
    // the contract (DESIGN.md §11). Bitwise equality across backends is
    // pinned above, so the active backend speaks for all of them.
    // Positive inputs suffice: oddness is pinned bitwise above.
    const TanhError dense = tanhErrorOverSweep(1e-6f, 12.0f, 7);
    EXPECT_LE(dense.ulps, 6u) << "worst at x = " << dense.worstX;
    EXPECT_LE(dense.abs, 4.2e-7);

    // Below 1e-6 the |x| < 4e-4 branch returns x, which is tanh(x)
    // correctly rounded or one ulp off; without it p/q loses the low
    // bits of x near the smallest normals (about 100 ulp).
    const TanhError tiny = tanhErrorOverSweep(
        std::numeric_limits<float>::denorm_min(), 1e-6f, 1021);
    EXPECT_LE(tiny.ulps, 1u) << "worst at x = " << tiny.worstX;

    // From the clamp on the result is exactly 1.
    std::vector<float> big;
    for (std::uint32_t u = simd_detail::f32Bits(7.90531110763549805f);
         u <= simd_detail::f32Bits(1e30f); u += 4099)
        big.push_back(simd_detail::f32FromBits(u));
    std::vector<float> one(big.size());
    simdOps().tanh(one.data(), big.data(), big.size());
    for (std::size_t i = 0; i < big.size(); i++)
        EXPECT_EQ(one[i], 1.0f) << "tanh(" << big[i] << ")";
}

/** Bitwise equal, except that any NaN equals any NaN. */
bool
sameBitsOrBothNan(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); i++) {
        if (std::isnan(a[i]) && std::isnan(b[i]))
            continue;
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
            return false;
    }
    return true;
}

TEST(SimdMatvecPanels, RowsEqualPerRowDotPlusBiasOnEveryBackend)
{
    // Every row count to 33 plus the 64- and 65-row shapes of a hidden
    // layer. Finite x compares bitwise. The other two x hold +-inf, and then
    // NaN as well: a padded panel row computes 0 * inf = NaN, and the
    // slots past `rows` must keep their sentinel. NaN payloads may
    // legally differ by operand order, so those x compare NaN-ness,
    // and bits elsewhere.
    const std::size_t widths[] = {1, 15, 16, 17, 33, 64, 65};
    std::vector<std::size_t> row_counts;
    for (std::size_t rows = 1; rows <= 33; rows++)
        row_counts.push_back(rows);
    row_counts.push_back(64);
    row_counts.push_back(65);
    const float inf = std::numeric_limits<float>::infinity();
    const float sentinel = 12345.0f;
    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        const SimdOps &ops = simdOps();
        for (std::size_t n : widths) {
            std::vector<float> infs = testData(n, 113);
            infs[0] = inf;
            infs[n / 2] = -inf;
            std::vector<float> nans = infs;
            nans[n - 1] = std::numeric_limits<float>::quiet_NaN();
            const std::vector<float> xs[] = {testData(n, 103), infs, nans};
            for (std::size_t rows : row_counts) {
                const std::vector<float> w = testData(rows * n, 107 + rows);
                const std::vector<float> bias = testData(rows, 109);
                std::vector<float> panels(matvecPanelsSize(rows, n), -1.0f);
                packMatvecPanels(panels.data(), w.data(), rows, n);
                for (std::size_t k = 0; k < std::size(xs); k++) {
                    const std::vector<float> &x = xs[k];
                    for (const float *bd :
                         {bias.data(), static_cast<const float *>(nullptr)}) {
                        std::vector<float> expected(rows);
                        for (std::size_t r = 0; r < rows; r++) {
                            const float sum =
                                ops.dot(w.data() + r * n, x.data(), n);
                            expected[r] = bd ? bd[r] + sum : sum;
                        }
                        std::vector<float> got(rows + 16, sentinel);
                        ops.matvecPanels(got.data(), panels.data(), bd,
                                         x.data(), rows, n);
                        const std::vector<float> tail(got.begin() + rows,
                                                      got.end());
                        got.resize(rows);
                        const bool same =
                            k == 0 ? bitwiseEqual(got, expected)
                                   : sameBitsOrBothNan(got, expected);
                        EXPECT_TRUE(same)
                            << simdBackendName(b) << " rows=" << rows
                            << " n=" << n << " bias=" << (bd != nullptr)
                            << " x=" << k;
                        EXPECT_TRUE(bitwiseEqual(
                            tail, std::vector<float>(16, sentinel)))
                            << simdBackendName(b) << " stored past rows="
                            << rows << " n=" << n;
                    }
                }
            }
        }
    }
}

TEST_F(SimdKernelEquivalence, SumSquaresIsBitwiseUnderFixedLaneContract)
{
    for (SimdBackend b : vectorBackends()) {
        for (std::size_t n : kSizes) {
            const std::vector<float> x = testData(n, 67);
            double scalarSum = 0.0;
            {
                ScopedSimdBackend forced(SimdBackend::Scalar);
                ASSERT_TRUE(forced.applied());
                scalarSum = simdOps().sumSquares(x.data(), n);
            }
            ScopedSimdBackend forced(b);
            ASSERT_TRUE(forced.applied());
            const double vectorSum = simdOps().sumSquares(x.data(), n);
            EXPECT_EQ(std::memcmp(&scalarSum, &vectorSum, sizeof(double)), 0)
                << simdBackendName(b) << " norm diverged at n=" << n;
        }
    }
}

TEST_F(SimdKernelEquivalence, AllFiniteExactEverywhere)
{
    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        const SimdOps &ops = simdOps();
        for (std::size_t n : kSizes) {
            std::vector<float> x = testData(n, 71);
            EXPECT_TRUE(ops.allFinite(x.data(), n)) << simdBackendName(b);
            // A single poison value at any position must flip it.
            const float poisons[] = {
                std::numeric_limits<float>::quiet_NaN(),
                std::numeric_limits<float>::infinity(),
                -std::numeric_limits<float>::infinity()};
            for (std::size_t i = 0; i < n; i++) {
                const float saved = x[i];
                x[i] = poisons[i % 3];
                EXPECT_FALSE(ops.allFinite(x.data(), n))
                    << simdBackendName(b) << " missed poison at " << i
                    << " of " << n;
                x[i] = saved;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reduction-order tolerance vs a plain serial sum (the documented bound).
// ---------------------------------------------------------------------------

TEST(SimdReductionTolerance, SumSquaresVsSerial)
{
    // The fixed-lane reduction reorders a nonneg sum; condition number 1,
    // so the drift is bounded by ~n ulps. This is the documented
    // tolerance between Tensor::l2Norm and a serial sum.
    const std::size_t n = 4096;
    const std::vector<float> x = testData(n, 73);
    double serial = 0.0;
    for (float v : x)
        serial += static_cast<double>(v) * static_cast<double>(v);
    for (SimdBackend b : availableSimdBackends()) {
        ScopedSimdBackend forced(b);
        ASSERT_TRUE(forced.applied());
        const double got = simdOps().sumSquares(x.data(), n);
        const double tol =
            static_cast<double>(n) *
            std::numeric_limits<double>::epsilon() * serial;
        EXPECT_NEAR(got, serial, tol) << simdBackendName(b);
    }
}

TEST(SimdReductionTolerance, DotVsSerialDouble)
{
    const std::size_t n = 1024;
    std::mt19937 rng(79);
    std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
    std::vector<float> a(n), b(n);
    double serial = 0.0, absSum = 0.0;
    for (std::size_t i = 0; i < n; i++) {
        a[i] = unit(rng);
        b[i] = unit(rng);
        const double p =
            static_cast<double>(a[i]) * static_cast<double>(b[i]);
        serial += p;
        absSum += std::fabs(p);
    }
    // Signed sum: error scales with the sum of |terms|, not the result.
    const double tol = 64.0 * std::numeric_limits<float>::epsilon() * absSum;
    for (SimdBackend backend : availableSimdBackends()) {
        ScopedSimdBackend forced(backend);
        ASSERT_TRUE(forced.applied());
        const float got = simdOps().dot(a.data(), b.data(), n);
        EXPECT_NEAR(static_cast<double>(got), serial, tol)
            << simdBackendName(backend);
    }
}

// ---------------------------------------------------------------------------
// fp16 conversion kernels vs the software Fp16 reference.
// ---------------------------------------------------------------------------

/** Floats that exercise every rounding branch and boundary. */
std::vector<float>
fp16BoundarySamples()
{
    std::vector<float> out;
    // Every half value, widened (includes subnormals, infs; NaNs too).
    for (std::uint32_t h = 0; h <= 0xffffu; h++)
        out.push_back(Fp16::fromBits(static_cast<std::uint16_t>(h)).toFloat());
    // Dense scans around the encoder's branch thresholds.
    const std::uint32_t centers[] = {
        0x00000000u, // zero / smallest subnormal floats
        0x33000000u, // half of the smallest subnormal half
        0x33800000u, // smallest subnormal half
        0x38800000u, // smallest normal half
        0x477fe000u, // largest finite half
        0x47800000u, // overflow threshold (65536.0f)
        0x7f800000u, // infinity
    };
    for (std::uint32_t c : centers) {
        for (std::int32_t d = -96; d <= 96; d++) {
            const std::uint32_t bits =
                c + static_cast<std::uint32_t>(d);
            if (bits > 0x7f800000u && c != 0x7f800000u)
                continue;
            out.push_back(simd_detail::f32FromBits(bits));
            out.push_back(simd_detail::f32FromBits(bits | 0x80000000u));
        }
    }
    // Random patterns across the whole float range.
    std::mt19937 rng(83);
    for (int i = 0; i < 200000; i++)
        out.push_back(simd_detail::f32FromBits(rng()));
    return out;
}

TEST(SimdFp16, FusedScalarRoundTripMatchesFp16Class)
{
    for (float x : fp16BoundarySamples()) {
        const float viaClass = Fp16(x).toFloat();
        const float fused = simd_detail::halfRoundTrip(x);
        if (std::isnan(viaClass)) {
            EXPECT_TRUE(std::isnan(fused));
            continue;
        }
        EXPECT_EQ(simd_detail::f32Bits(viaClass), simd_detail::f32Bits(fused))
            << "input bits 0x" << std::hex << simd_detail::f32Bits(x);
    }
}

TEST(SimdFp16, ScalarHelpersMatchFp16ClassExhaustively)
{
    for (std::uint32_t h = 0; h <= 0xffffu; h++) {
        const auto bits = static_cast<std::uint16_t>(h);
        const float viaClass = Fp16::fromBits(bits).toFloat();
        const float viaHelper = simd_detail::halfToFloat(bits);
        EXPECT_EQ(simd_detail::f32Bits(viaClass),
                  simd_detail::f32Bits(viaHelper))
            << "half bits 0x" << std::hex << h;
    }
}

TEST(SimdFp16, QuantizeMatchesSoftwareGridOnEveryBackend)
{
    const std::vector<float> samples = fp16BoundarySamples();
    for (SimdBackend backend : availableSimdBackends()) {
        ScopedSimdBackend forced(backend);
        ASSERT_TRUE(forced.applied());
        std::vector<float> data = samples;
        simdOps().quantizeFp16(data.data(), data.size());
        for (std::size_t i = 0; i < samples.size(); i++) {
            const float expected = roundToFp16(samples[i]);
            if (std::isnan(expected)) {
                // NaNs stay NaN; hardware may keep payload bits the
                // software path canonicalizes, so only NaN-ness is pinned.
                EXPECT_TRUE(std::isnan(data[i])) << simdBackendName(backend);
                continue;
            }
            EXPECT_EQ(simd_detail::f32Bits(expected),
                      simd_detail::f32Bits(data[i]))
                << simdBackendName(backend) << " input bits 0x" << std::hex
                << simd_detail::f32Bits(samples[i]);
        }
    }
}

TEST(SimdFp16, PackMatchesSoftwareEncoderOnEveryBackend)
{
    const std::vector<float> samples = fp16BoundarySamples();
    for (SimdBackend backend : availableSimdBackends()) {
        ScopedSimdBackend forced(backend);
        ASSERT_TRUE(forced.applied());
        std::vector<std::uint16_t> packed(samples.size());
        simdOps().packFp16(packed.data(), samples.data(), samples.size());
        for (std::size_t i = 0; i < samples.size(); i++) {
            const Fp16 expected(samples[i]);
            if (expected.isNaN()) {
                EXPECT_TRUE(Fp16::fromBits(packed[i]).isNaN())
                    << simdBackendName(backend);
                continue;
            }
            EXPECT_EQ(expected.bits(), packed[i])
                << simdBackendName(backend) << " input bits 0x" << std::hex
                << simd_detail::f32Bits(samples[i]);
        }
    }
}

TEST(SimdFp16, UnpackWidensEveryPatternOnEveryBackend)
{
    std::vector<std::uint16_t> halves(0x10000);
    for (std::uint32_t h = 0; h <= 0xffffu; h++)
        halves[h] = static_cast<std::uint16_t>(h);
    for (SimdBackend backend : availableSimdBackends()) {
        ScopedSimdBackend forced(backend);
        ASSERT_TRUE(forced.applied());
        std::vector<float> widened(halves.size());
        simdOps().unpackFp16(widened.data(), halves.data(), halves.size());
        for (std::size_t h = 0; h < halves.size(); h++) {
            const Fp16 half = Fp16::fromBits(halves[h]);
            if (half.isNaN()) {
                // Hardware widening quiets signaling NaNs; software keeps
                // the pattern. Both must stay NaN.
                EXPECT_TRUE(std::isnan(widened[h]))
                    << simdBackendName(backend);
                continue;
            }
            EXPECT_EQ(simd_detail::f32Bits(half.toFloat()),
                      simd_detail::f32Bits(widened[h]))
                << simdBackendName(backend) << " half bits 0x" << std::hex
                << h;
        }
    }
}

} // namespace
} // namespace enode
