#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/simd.h"
#include "common/simd_internal.h"

/**
 * @file
 * AVX2-class x86 backend (256-bit f32 lanes, F16C half conversion).
 *
 * This file is compiled with -mavx2 -mfma -mf16c -ffp-contract=off on
 * x86 builds (see src/common/CMakeLists.txt) and reduces to a nullptr
 * stub elsewhere. The dispatcher only publishes the table after the
 * cpuid probe confirms all three features, so no vector instruction
 * executes on a machine that lacks them. No FMA intrinsic is used —
 * per-op rounding is the cross-backend bitwise contract — but -mfma
 * matches the probe so the flag set and the feature check agree.
 */

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__) && \
    defined(__FMA__) && defined(__F16C__)
#define ENODE_SIMD_BUILD_AVX2 1
#endif

#ifdef ENODE_SIMD_BUILD_AVX2

#include <immintrin.h>

namespace enode {
namespace {

struct VecF
{
    static constexpr std::size_t kWidth = 8;
    __m256 v;

    static VecF load(const float *p) { return {_mm256_loadu_ps(p)}; }
    void store(float *p) const { _mm256_storeu_ps(p, v); }
    static VecF broadcast(float x) { return {_mm256_set1_ps(x)}; }
    VecF add(VecF o) const { return {_mm256_add_ps(v, o.v)}; }
    VecF mul(VecF o) const { return {_mm256_mul_ps(v, o.v)}; }
    VecF div(VecF o) const { return {_mm256_div_ps(v, o.v)}; }
    VecF min(VecF o) const { return {_mm256_min_ps(v, o.v)}; }
    VecF max(VecF o) const { return {_mm256_max_ps(v, o.v)}; }
    VecF
    abs() const
    {
        return {_mm256_andnot_ps(_mm256_set1_ps(-0.0f), v)};
    }
    static VecF
    selectLess(VecF a, VecF b, VecF x, VecF y)
    {
        return {_mm256_blendv_ps(y.v, x.v,
                                 _mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ))};
    }

};

struct VecD
{
    static constexpr std::size_t kWidth = 4;
    __m256d v;

    static VecD zero() { return {_mm256_setzero_pd()}; }
    static void
    widen8(const float *p, VecD out[2])
    {
        out[0] = {_mm256_cvtps_pd(_mm_loadu_ps(p))};
        out[1] = {_mm256_cvtps_pd(_mm_loadu_ps(p + 4))};
    }
    VecD add(VecD o) const { return {_mm256_add_pd(v, o.v)}; }
    VecD mul(VecD o) const { return {_mm256_mul_pd(v, o.v)}; }
    void store(double *p) const { _mm256_storeu_pd(p, v); }
};

#define ENODE_SIMD_BACKEND_ENUM SimdBackend::Avx2
#define ENODE_SIMD_BACKEND_NAME "avx2"
#include "common/simd_kernels.inc"
#undef ENODE_SIMD_BACKEND_ENUM
#undef ENODE_SIMD_BACKEND_NAME

bool
allFiniteImpl(const float *x, std::size_t n)
{
    const __m256i expMask = _mm256_set1_epi32(0x7f800000);
    __m256i bad = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i bits = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(x + i));
        bad = _mm256_or_si256(
            bad,
            _mm256_cmpeq_epi32(_mm256_and_si256(bits, expMask), expMask));
    }
    if (!_mm256_testz_si256(bad, bad))
        return false;
    for (; i < n; i++) {
        if (!simd_detail::finiteBits(simd_detail::f32Bits(x[i])))
            return false;
    }
    return true;
}

void
quantizeFp16Impl(float *data, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i h = _mm256_cvtps_ph(
            _mm256_loadu_ps(data + i),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        _mm256_storeu_ps(data + i, _mm256_cvtph_ps(h));
    }
    for (; i < n; i++)
        data[i] = simd_detail::halfRoundTrip(data[i]);
}

void
packFp16Impl(std::uint16_t *dst, const float *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i h = _mm256_cvtps_ph(
            _mm256_loadu_ps(src + i),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i), h);
    }
    for (; i < n; i++)
        dst[i] = simd_detail::halfBitsFromFloat(src[i]);
}

void
unpackFp16Impl(float *dst, const std::uint16_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i h = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + i));
        _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
    }
    for (; i < n; i++)
        dst[i] = simd_detail::halfToFloat(src[i]);
}

} // namespace

const SimdOps *
simdOpsAvx2()
{
    return &kOps;
}

} // namespace enode

#else // !ENODE_SIMD_BUILD_AVX2

namespace enode {

const SimdOps *
simdOpsAvx2()
{
    return nullptr;
}

} // namespace enode

#endif
