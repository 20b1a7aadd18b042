#ifndef ENODE_COMMON_SIMD_H
#define ENODE_COMMON_SIMD_H

/**
 * @file
 * Explicit SIMD kernel backend with runtime CPU-feature dispatch.
 *
 * The conv/solver kernels used to lean on the compiler auto-vectorizing
 * at -march=native, which is fragile (one spill drops a tile to scalar)
 * and ties the binary to the build machine. This layer makes the
 * vector arithmetic explicit: a table of kernel function pointers
 * (SimdOps) with one implementation per ISA — scalar (always compiled,
 * the equivalence oracle), AVX2+FMA-class x86, AVX-512 x86, and NEON on
 * aarch64 — selected once at startup by a CPU-feature probe (cpuid via
 * __builtin_cpu_supports on x86, getauxval(AT_HWCAP) on aarch64).
 *
 * Numerical contracts (tested in tests/test_simd.cc, documented in
 * DESIGN.md "SIMD backend & dispatch"):
 *
 *  - Elementwise kernels (axpy, scale, add/sub, conv tap passes) use
 *    per-op rounding — multiply then add, never a fused multiply-add —
 *    so every backend is *bitwise identical* to scalar. All backend
 *    translation units are compiled with -ffp-contract=off to keep the
 *    compiler from re-fusing them.
 *  - Reductions use a *fixed lane structure* independent of register
 *    width: dot products (and each matvecPanels row) accumulate into 16
 *    float lanes (AVX-512 uses one 16-wide register, AVX2 two 8-wide,
 *    NEON four 4-wide, scalar a 16-element array) and sum-of-squares
 *    into 8 double lanes, with a serial tail and a serial final
 *    reduction in fixed lane order. Backends are therefore bitwise
 *    identical *to each other*; they differ from a plain serial sum
 *    only by the documented reduction-order tolerance.
 *  - tanh is a rational approximation built from rounded add, mul,
 *    div, min, max and select with pinned NaN semantics, so it too is
 *    bitwise identical across backends (but not equal to libm).
 *  - allFinite is exact (a NaN/Inf anywhere flips it, no FP rounding
 *    involved). quantizeFp16 is bitwise identical across backends for
 *    every non-NaN input; hardware converters (F16C, NEON fcvt) may
 *    preserve NaN payload bits where the software path canonicalizes
 *    to sign|0x7e00 — both stay NaN.
 *
 * Override: set ENODE_SIMD=scalar|avx2|avx512|neon before the first
 * kernel call to force a backend (ignored with a warning if the CPU or
 * build does not support it), or call setSimdBackend() / use
 * ScopedSimdBackend from tests and benches.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace enode {

/** The instruction sets a kernel table can be specialized for. */
enum class SimdBackend : std::uint8_t {
    Scalar = 0,
    Neon = 1,
    Avx2 = 2,
    Avx512 = 3,
};

/**
 * One backend's kernel table. All pointers are non-null in a published
 * table; kernels are pure functions of their arguments (no allocation,
 * no shared state) and safe to call from any thread.
 */
struct SimdOps
{
    SimdBackend backend;
    const char *name;
    /** f32 elements per native vector register (1 for scalar). */
    std::size_t laneWidth;

    /** y[i] += a * x[i] (per-op rounding, bitwise across backends). */
    void (*axpy)(float *y, float a, const float *x, std::size_t n);
    /** y[i] *= s. */
    void (*scale)(float *y, float s, std::size_t n);
    /** y[i] += x[i]. */
    void (*addInPlace)(float *y, const float *x, std::size_t n);
    /** y[i] -= x[i]. */
    void (*subInPlace)(float *y, const float *x, std::size_t n);
    /** dst[i] = src[i]; memcpy semantics (regions must not overlap). */
    void (*copy)(float *dst, const float *src, std::size_t n);
    /**
     * dst[i] = tanh(src[i]) by a clamped 13/6 rational approximation
     * (Eigen's float tanh, |x| < 4e-4 returns x), not libm: the bits
     * depend only on the input, identically on every backend and
     * platform. Within 6 ulp and 4.2e-7 absolute of the exact tanh
     * (DESIGN.md §11 gives the sweep); NaN stays NaN, +-inf maps to
     * +-1, tanh(-x) == -tanh(x) bitwise. dst may equal src.
     */
    void (*tanh)(float *dst, const float *src, std::size_t n);

    /**
     * Conv 3-tap row pass: acc[i] += w[0]*row[i] + w[1]*row[i+1] +
     * w[2]*row[i+2], taps applied in order with per-op rounding.
     * `row` must be readable through row[n + 1].
     */
    void (*rowTaps3)(float *acc, const float *row, const float *w,
                     std::size_t n);
    /**
     * Fused 4-output-channel variant of rowTaps3: rows k = 0..3 live at
     * acc + k*n and use the 3-tap vector wk.
     */
    void (*rowTaps3x4)(float *acc, const float *row, const float *w0,
                       const float *w1, const float *w2, const float *w3,
                       std::size_t n);

    /**
     * Accumulating 16-lane dot product (the conv weight-gradient core):
     * lanes[j] += a[16k + j]*b[16k + j] over full 16-element chunks and
     * *tail += a[i]*b[i] for the remainder. Lane structure is fixed at
     * 16 regardless of register width, so results are bitwise identical
     * across backends. Callers reduce as s = tail + lanes[0] + ... +
     * lanes[15] (see dot for the one-shot form).
     */
    void (*accumDot16)(float lanes[16], float *tail, const float *a,
                       const float *b, std::size_t n);
    /**
     * One-shot dot product under the same fixed 16-lane contract:
     * zero lanes, accumDot16, then the serial tail-first reduction.
     */
    float (*dot)(const float *a, const float *b, std::size_t n);
    /**
     * Matvec under dot's fixed-lane contract, from W (rows x n) packed
     * as 16-row column panels (packMatvecPanels): out[r] = bias[r] +
     * dot(W[r], x, n) for r < rows, or the bare dot when bias is null,
     * bit for bit. A row's tail, 16 lanes and `tail + l0 + ... + l15`
     * reduce run vertically, one row per vector lane. Padded rows are
     * computed but never stored: out[r] is written for r < rows only.
     * `out` must not alias panels, bias or x.
     */
    void (*matvecPanels)(float *out, const float *panels, const float *bias,
                         const float *x, std::size_t rows, std::size_t n);

    /**
     * Sum of squares in double precision under a fixed 8-double-lane
     * contract (bitwise across backends): lanes[j] += (double)x[8k+j]^2,
     * serial tail, reduction s = tail + lanes[0] + ... + lanes[7].
     * This is the WRMS error-norm kernel (l2Norm = sqrt of this).
     */
    double (*sumSquares)(const float *x, std::size_t n);

    /** True iff every element is finite. Exact (inspects exponent bits). */
    bool (*allFinite)(const float *x, std::size_t n);

    /**
     * data[i] = roundToFp16(data[i]): one fused round-trip through the
     * binary16 grid per element (RNE, saturate to inf, subnormals kept).
     * Bitwise identical across backends for non-NaN input; NaNs stay
     * NaN but hardware paths may keep payload bits the software path
     * canonicalizes.
     */
    void (*quantizeFp16)(float *data, std::size_t n);
    /** dst[i] = half bits of src[i] (RNE; same NaN caveat as above). */
    void (*packFp16)(std::uint16_t *dst, const float *src, std::size_t n);
    /** dst[i] = float value of half bits src[i] (exact widening). */
    void (*unpackFp16)(float *dst, const std::uint16_t *src, std::size_t n);
};

/** Floats in the column-panel copy of a rows x n matrix (rows padded
 *  up to a multiple of 16). */
std::size_t matvecPanelsSize(std::size_t rows, std::size_t n);

/**
 * Pack row-major W (rows x n) into the layout SimdOps::matvecPanels
 * reads: panel p holds W[16p .. 16p + 15][i] contiguously for every
 * column i in order, zero past the last row. `panels` holds
 * matvecPanelsSize(rows, n) floats and is written front to back.
 */
void packMatvecPanels(float *panels, const float *w, std::size_t rows,
                      std::size_t n);

/** Lowercase backend name: "scalar", "neon", "avx2", "avx512". */
const char *simdBackendName(SimdBackend backend);

/** Parse a backend name as spelled in ENODE_SIMD. */
std::optional<SimdBackend> parseSimdBackendName(std::string_view name);

/** True when this binary contains code for the backend. */
bool simdBackendCompiled(SimdBackend backend);

/** True when the backend is compiled in *and* this CPU can run it. */
bool simdBackendSupported(SimdBackend backend);

/** Every supported backend, Scalar first. */
std::vector<SimdBackend> availableSimdBackends();

/** The backend whose table simdOps() currently returns. */
SimdBackend activeSimdBackend();

/**
 * Force a backend. Returns false (and changes nothing) when the
 * backend is not supported here. Not meant to race with in-flight
 * kernels: call it from a quiesced point (tests, bench setup, startup).
 */
bool setSimdBackend(SimdBackend backend);

/** Drop any override and re-run the probe/ENODE_SIMD selection. */
void resetSimdBackend();

/** The active kernel table. First call runs the CPU probe. */
const SimdOps &simdOps();

/** RAII backend override for tests and benches. */
class ScopedSimdBackend
{
  public:
    explicit ScopedSimdBackend(SimdBackend backend)
        : previous_(activeSimdBackend()), applied_(setSimdBackend(backend))
    {
    }
    ~ScopedSimdBackend()
    {
        if (applied_)
            setSimdBackend(previous_);
    }
    ScopedSimdBackend(const ScopedSimdBackend &) = delete;
    ScopedSimdBackend &operator=(const ScopedSimdBackend &) = delete;

    /** False when the requested backend was unavailable. */
    bool applied() const { return applied_; }

  private:
    SimdBackend previous_;
    bool applied_;
};

} // namespace enode

#endif // ENODE_COMMON_SIMD_H
