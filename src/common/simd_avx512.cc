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

    /** 16x16 transpose: unpack pairs of rows, then pairs of pairs, then
     *  a 4x4 transpose of the 128-bit blocks in two shuffle rounds. */
    static void
    transpose(VecF r[16])
    {
        __m512 t[16], u[16];
#pragma GCC unroll 8
        for (int i = 0; i < 16; i += 2) {
            t[i] = _mm512_unpacklo_ps(r[i].v, r[i + 1].v);
            t[i + 1] = _mm512_unpackhi_ps(r[i].v, r[i + 1].v);
        }
        // u[4c + g], 128-bit block b: rows 4g..4g+3 at column 4b + c.
#pragma GCC unroll 4
        for (int g = 0; g < 4; g++) {
            const __m512d lo0 = _mm512_castps_pd(t[4 * g]);
            const __m512d lo1 = _mm512_castps_pd(t[4 * g + 2]);
            const __m512d hi0 = _mm512_castps_pd(t[4 * g + 1]);
            const __m512d hi1 = _mm512_castps_pd(t[4 * g + 3]);
            u[g] = _mm512_castpd_ps(_mm512_unpacklo_pd(lo0, lo1));
            u[4 + g] = _mm512_castpd_ps(_mm512_unpackhi_pd(lo0, lo1));
            u[8 + g] = _mm512_castpd_ps(_mm512_unpacklo_pd(hi0, hi1));
            u[12 + g] = _mm512_castpd_ps(_mm512_unpackhi_pd(hi0, hi1));
        }
#pragma GCC unroll 4
        for (int c = 0; c < 4; c++) {
            const __m512 *q = u + 4 * c;
            const __m512 a = _mm512_shuffle_f32x4(q[0], q[1], 0x44);
            const __m512 b = _mm512_shuffle_f32x4(q[0], q[1], 0xee);
            const __m512 e = _mm512_shuffle_f32x4(q[2], q[3], 0x44);
            const __m512 f = _mm512_shuffle_f32x4(q[2], q[3], 0xee);
            r[c].v = _mm512_shuffle_f32x4(a, e, 0x88);
            r[4 + c].v = _mm512_shuffle_f32x4(a, e, 0xdd);
            r[8 + c].v = _mm512_shuffle_f32x4(b, f, 0x88);
            r[12 + c].v = _mm512_shuffle_f32x4(b, f, 0xdd);
        }
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
