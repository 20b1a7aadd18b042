#include "common/simd.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "common/simd_internal.h"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace enode {

// ---------------------------------------------------------------------------
// Scalar backend: the always-compiled equivalence oracle. This TU is built
// with -ffp-contract=off and auto-vectorization disabled, so "scalar" means
// scalar — one rounded operation per source-level operation — and stays a
// stable baseline for the per-backend speedup sweep regardless of -march.
// ---------------------------------------------------------------------------

namespace {

struct VecF
{
    static constexpr std::size_t kWidth = 1;
    float v;

    static VecF load(const float *p) { return {*p}; }
    void store(float *p) const { *p = v; }
    static VecF broadcast(float x) { return {x}; }
    VecF add(VecF o) const { return {v + o.v}; }
    VecF mul(VecF o) const { return {v * o.v}; }
    VecF div(VecF o) const { return {v / o.v}; }
    VecF min(VecF o) const { return {v < o.v ? v : o.v}; }
    VecF max(VecF o) const { return {v > o.v ? v : o.v}; }
    VecF abs() const { return {std::fabs(v)}; }
    static VecF
    selectLess(VecF a, VecF b, VecF x, VecF y)
    {
        return {a.v < b.v ? x.v : y.v};
    }
    static void transpose(VecF[1]) {}
};

struct VecD
{
    static constexpr std::size_t kWidth = 1;
    double v;

    static VecD zero() { return {0.0}; }
    static void
    widen8(const float *p, VecD out[8])
    {
        for (std::size_t j = 0; j < 8; j++)
            out[j] = {static_cast<double>(p[j])};
    }
    VecD add(VecD o) const { return {v + o.v}; }
    VecD mul(VecD o) const { return {v * o.v}; }
    void store(double *p) const { *p = v; }
};

#define ENODE_SIMD_BACKEND_ENUM SimdBackend::Scalar
#define ENODE_SIMD_BACKEND_NAME "scalar"
#include "common/simd_kernels.inc"
#undef ENODE_SIMD_BACKEND_ENUM
#undef ENODE_SIMD_BACKEND_NAME

bool
allFiniteImpl(const float *x, std::size_t n)
{
    // Exponent-bits screen: finite iff the exponent field is not all
    // ones. Accumulating with & keeps the loop branch-free; the kernel
    // is exact, so every backend agrees on every input.
    std::uint32_t ok = 1;
    for (std::size_t i = 0; i < n; i++)
        ok &= static_cast<std::uint32_t>(
            simd_detail::finiteBits(simd_detail::f32Bits(x[i])));
    return ok != 0;
}

void
quantizeFp16Impl(float *data, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++)
        data[i] = simd_detail::halfRoundTrip(data[i]);
}

void
packFp16Impl(std::uint16_t *dst, const float *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++)
        dst[i] = simd_detail::halfBitsFromFloat(src[i]);
}

void
unpackFp16Impl(float *dst, const std::uint16_t *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++)
        dst[i] = simd_detail::halfToFloat(src[i]);
}

// ---------------------------------------------------------------------------
// Probe + dispatch.
// ---------------------------------------------------------------------------

/** Table for a backend compiled into this binary, else nullptr. */
const SimdOps *
tableFor(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Scalar:
        return &kOps;
    case SimdBackend::Neon:
        return simdOpsNeon();
    case SimdBackend::Avx2:
        return simdOpsAvx2();
    case SimdBackend::Avx512:
        return simdOpsAvx512();
    }
    return nullptr;
}

/** Does the machine we are running on implement the backend's ISA? */
bool
cpuSupportsBackend(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Scalar:
        return true;
    case SimdBackend::Avx2:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
        // The probe runs cpuid once under the hood; FMA and F16C ship
        // together with AVX2 on every real core, but check anyway since
        // the backend TU assumes all three.
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma") &&
               __builtin_cpu_supports("f16c");
#else
        return false;
#endif
    case SimdBackend::Avx512:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
        return __builtin_cpu_supports("avx512f");
#else
        return false;
#endif
    case SimdBackend::Neon:
#if defined(__aarch64__) && defined(__linux__)
        return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#elif defined(__aarch64__)
        return true; // Advanced SIMD is baseline on every aarch64 core.
#else
        return false;
#endif
    }
    return false;
}

/**
 * Pick the startup backend: honor ENODE_SIMD when it names a usable
 * backend (warn and fall through otherwise), else the widest ISA this
 * CPU supports. avx512 > avx2 > neon > scalar.
 */
const SimdOps *
probeDefault()
{
    if (const char *env = std::getenv("ENODE_SIMD")) {
        const auto requested = parseSimdBackendName(env);
        if (!requested) {
            ENODE_WARN("ENODE_SIMD=", env,
                       " is not a backend name "
                       "(scalar|avx2|avx512|neon); using the probe default");
        } else if (!simdBackendSupported(*requested)) {
            ENODE_WARN("ENODE_SIMD=", env,
                       " is not usable on this machine "
                       "(not compiled in, or missing CPU features); "
                       "using the probe default");
        } else {
            return tableFor(*requested);
        }
    }
    for (SimdBackend backend :
         {SimdBackend::Avx512, SimdBackend::Avx2, SimdBackend::Neon}) {
        if (simdBackendSupported(backend))
            return tableFor(backend);
    }
    return &kOps;
}

/** Active table; null until the first simdOps() call runs the probe. */
std::atomic<const SimdOps *> g_activeOps{nullptr};

} // namespace

const char *
simdBackendName(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Scalar:
        return "scalar";
    case SimdBackend::Neon:
        return "neon";
    case SimdBackend::Avx2:
        return "avx2";
    case SimdBackend::Avx512:
        return "avx512";
    }
    return "unknown";
}

std::optional<SimdBackend>
parseSimdBackendName(std::string_view name)
{
    std::string lower(name);
    for (char &c : lower)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    for (SimdBackend backend :
         {SimdBackend::Scalar, SimdBackend::Neon, SimdBackend::Avx2,
          SimdBackend::Avx512}) {
        if (lower == simdBackendName(backend))
            return backend;
    }
    return std::nullopt;
}

bool
simdBackendCompiled(SimdBackend backend)
{
    return tableFor(backend) != nullptr;
}

bool
simdBackendSupported(SimdBackend backend)
{
    return simdBackendCompiled(backend) && cpuSupportsBackend(backend);
}

std::vector<SimdBackend>
availableSimdBackends()
{
    std::vector<SimdBackend> out;
    for (SimdBackend backend :
         {SimdBackend::Scalar, SimdBackend::Neon, SimdBackend::Avx2,
          SimdBackend::Avx512}) {
        if (simdBackendSupported(backend))
            out.push_back(backend);
    }
    return out;
}

const SimdOps &
simdOps()
{
    const SimdOps *table = g_activeOps.load(std::memory_order_acquire);
    if (table == nullptr) {
        // A racing first call is benign: both sides compute the same
        // default and the CAS keeps whichever landed first.
        const SimdOps *probed = probeDefault();
        const SimdOps *expected = nullptr;
        if (g_activeOps.compare_exchange_strong(expected, probed,
                                                std::memory_order_acq_rel))
            table = probed;
        else
            table = expected;
    }
    return *table;
}

SimdBackend
activeSimdBackend()
{
    return simdOps().backend;
}

bool
setSimdBackend(SimdBackend backend)
{
    if (!simdBackendSupported(backend))
        return false;
    g_activeOps.store(tableFor(backend), std::memory_order_release);
    return true;
}

void
resetSimdBackend()
{
    g_activeOps.store(probeDefault(), std::memory_order_release);
}

} // namespace enode
