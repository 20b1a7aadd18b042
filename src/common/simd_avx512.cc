#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/simd.h"
#include "common/simd_internal.h"

/**
 * @file
 * AVX-512 x86 backend (512-bit f32 lanes).
 *
 * Compiled with -mavx512f -ffp-contract=off on x86 builds; nullptr stub
 * elsewhere. Only AVX512F intrinsics are used (the fixed 16-lane dot
 * maps onto exactly one zmm accumulator, the 8-double norm onto one
 * zmm), and the probe requires only avx512f.
 */

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX512F__)
#define ENODE_SIMD_BUILD_AVX512 1
#endif

#ifdef ENODE_SIMD_BUILD_AVX512

#include <immintrin.h>

namespace enode {
namespace {

struct VecF
{
    static constexpr std::size_t kWidth = 16;
    __m512 v;

    static VecF load(const float *p) { return {_mm512_loadu_ps(p)}; }
    void store(float *p) const { _mm512_storeu_ps(p, v); }
    static VecF broadcast(float x) { return {_mm512_set1_ps(x)}; }
    VecF add(VecF o) const { return {_mm512_add_ps(v, o.v)}; }
    VecF mul(VecF o) const { return {_mm512_mul_ps(v, o.v)}; }
    VecF div(VecF o) const { return {_mm512_div_ps(v, o.v)}; }
    VecF min(VecF o) const { return {_mm512_min_ps(v, o.v)}; }
    VecF max(VecF o) const { return {_mm512_max_ps(v, o.v)}; }
    VecF abs() const { return {_mm512_abs_ps(v)}; }
    static VecF
    selectLess(VecF a, VecF b, VecF x, VecF y)
    {
        return {_mm512_mask_blend_ps(_mm512_cmp_ps_mask(a.v, b.v, _CMP_LT_OQ),
                                     y.v, x.v)};
    }

};

struct VecD
{
    static constexpr std::size_t kWidth = 8;
    __m512d v;

    static VecD zero() { return {_mm512_setzero_pd()}; }
    static void
    widen8(const float *p, VecD out[1])
    {
        out[0] = {_mm512_cvtps_pd(_mm256_loadu_ps(p))};
    }
    VecD add(VecD o) const { return {_mm512_add_pd(v, o.v)}; }
    VecD mul(VecD o) const { return {_mm512_mul_pd(v, o.v)}; }
    void store(double *p) const { _mm512_storeu_pd(p, v); }
};

#define ENODE_SIMD_BACKEND_ENUM SimdBackend::Avx512
#define ENODE_SIMD_BACKEND_NAME "avx512"
#include "common/simd_kernels.inc"
#undef ENODE_SIMD_BACKEND_ENUM
#undef ENODE_SIMD_BACKEND_NAME

bool
allFiniteImpl(const float *x, std::size_t n)
{
    const __m512i expMask = _mm512_set1_epi32(0x7f800000);
    __mmask16 bad = 0;
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512i bits = _mm512_loadu_si512(x + i);
        bad = static_cast<__mmask16>(
            bad | _mm512_cmpeq_epi32_mask(_mm512_and_epi32(bits, expMask),
                                          expMask));
    }
    if (bad != 0)
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
    for (; i + 16 <= n; i += 16) {
        const __m256i h = _mm512_cvtps_ph(
            _mm512_loadu_ps(data + i),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        _mm512_storeu_ps(data + i, _mm512_cvtph_ps(h));
    }
    for (; i < n; i++)
        data[i] = simd_detail::halfRoundTrip(data[i]);
}

void
packFp16Impl(std::uint16_t *dst, const float *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256i h = _mm512_cvtps_ph(
            _mm512_loadu_ps(src + i),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), h);
    }
    for (; i < n; i++)
        dst[i] = simd_detail::halfBitsFromFloat(src[i]);
}

void
unpackFp16Impl(float *dst, const std::uint16_t *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256i h = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        _mm512_storeu_ps(dst + i, _mm512_cvtph_ps(h));
    }
    for (; i < n; i++)
        dst[i] = simd_detail::halfToFloat(src[i]);
}

} // namespace

const SimdOps *
simdOpsAvx512()
{
    return &kOps;
}

} // namespace enode

#else // !ENODE_SIMD_BUILD_AVX512

namespace enode {

const SimdOps *
simdOpsAvx512()
{
    return nullptr;
}

} // namespace enode

#endif
