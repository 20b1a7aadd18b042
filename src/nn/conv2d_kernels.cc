/**
 * @file
 * Blocked implementations of the three convolution kernels (forward,
 * flipped-kernel adjoint, weight-grad) on the explicit SIMD backend
 * layer (common/simd.h): every hot sweep below calls the dispatched
 * vector kernels rather than hoping the compiler auto-vectorizes.
 *
 * These are the hot loops of the whole library: every f evaluation of
 * every integration trial lands here. The design mirrors the paper's
 * unified NN core (Sec. VI), whose 64 PEs are grouped diagonally into
 * an 8-input x 8-output channel tile:
 *
 *  - Direct path: the input is first copied once into a zero-padded
 *    pool scratch (halo of K/2 on every side), which deletes all edge
 *    clamping from the hot loops — every tap pass is a single
 *    branch-free sweep over a full row the compiler vectorizes without
 *    peel/remainder overhead. Output channels are processed in tiles
 *    of 8; for each output row a stacked row accumulator (8 x W
 *    floats, L1-resident) is updated four output channels at a time:
 *    the 4-channel fused pass applies one kernel row (3 taps) of four
 *    channels in one sweep, so twelve FMA chains share every input
 *    load instead of one.
 *  - Adjoint (backward-data) reuses the exact same core: the weights
 *    are pre-packed spatially flipped with the C/M roles swapped
 *    (Fig. 9(c)), so the adjoint runs at forward speed.
 *  - Weight-grad runs on the same padded input: each kernel tap is one
 *    branch-free dot-product of the grad map with the tap-shifted
 *    padded map, accumulated into 16 independent register lanes,
 *    replacing the reference kernel's single serial reduction chain.
 *  - Taps beyond 3 run one saxpy sweep per tap on the same padded
 *    rows, so the direct core serves every odd K and every map width.
 *
 * All three kernels are tiled for intra-op parallelism on the task
 * pool (common/task_pool.h), mirroring the paper's core ring splitting
 * one f evaluation across NN cores: the direct path over
 * (out-channel-tile x output-row) work items and the weight-grad over
 * (m, c) kernel-plane pairs. Every output element's accumulation
 * order is contained entirely within one work item, and the partition
 * only groups whole items, so results are bitwise identical to the
 * serial kernels at every thread count. Without an IntraOpScope the
 * tiles run inline on the caller — the serial path is the same code.
 *
 * Scratch buffers come from the executing thread's Workspace arena
 * (PooledScratch: each chunk acquires on the worker that runs it and
 * releases to the same worker), so the kernels allocate nothing from
 * the heap in steady state at any thread count. The original scalar
 * kernels are retained in conv2d_reference.cc as ground truth.
 */

#include "nn/conv2d.h"

#include <algorithm>
#include <cstddef>

#include "common/logging.h"
#include "common/simd.h"
#include "common/task_pool.h"
#include "tensor/workspace.h"

#if defined(__GNUC__) || defined(__clang__)
#define ENODE_RESTRICT __restrict__
#else
#define ENODE_RESTRICT
#endif

namespace enode {

namespace {

/** Output-channel tile height: the NN core's 8x8 diagonal PE grouping. */
constexpr std::size_t kTileM = 8;

/** Max kernel extent served by the fused-tap register kernels. */
constexpr std::size_t kMaxFusedK = 7;

/**
 * Minimum work items per parallel chunk. One item of the direct core
 * is one output row of an 8-channel tile (~W * Ci * K^2 FMAs); four
 * per chunk keeps dispatch overhead under ~1% at the paper's 8x8x3x3
 * shapes while still splitting 32-row maps eight ways.
 */
constexpr std::size_t kRowGrain = 4;

/**
 * Copies a CHW map into @p dst with a zero halo of @p pad on all four
 * sides of every channel (dst layout: C x (H+2p) x (W+2p)). One pass
 * over the input, amortized over C*K*K tap sweeps; in exchange every
 * hot loop below is branch-free over full rows.
 */
void
padInput(float *ENODE_RESTRICT dst, const float *ENODE_RESTRICT src,
         std::size_t C, std::size_t H, std::size_t W, std::size_t pad)
{
    const std::size_t Hp = H + 2 * pad;
    const std::size_t Wp = W + 2 * pad;
    std::fill(dst, dst + C * Hp * Wp, 0.0f);
    for (std::size_t c = 0; c < C; c++)
        for (std::size_t h = 0; h < H; h++)
            std::copy(src + (c * H + h) * W, src + (c * H + h + 1) * W,
                      dst + (c * Hp + h + pad) * Wp + pad);
}

/**
 * Generic-K tap pass over a padded row: one clean saxpy sweep per tap
 * on the active SIMD backend. The 3-tap cases go through the backend's
 * fused rowTaps3 / rowTaps3x4 kernels instead (see directConvCore).
 */
inline void
addRowTapsGeneric(const SimdOps &ops, float *ENODE_RESTRICT acc,
                  const float *ENODE_RESTRICT irow, const float *wr,
                  std::size_t W, std::size_t K)
{
    for (std::size_t kw = 0; kw < K; kw++) {
        const float wv = wr[kw];
        if (wv == 0.0f)
            continue;
        ops.axpy(acc, wv, irow + kw, W);
    }
}

/**
 * Direct convolution core shared by forward and (via weight packing)
 * backward-data:
 *
 *   out[mo][h][w] = bias[mo] + sum_{ci,kh,kw}
 *       wgt[((mo*Ci)+ci)*K*K + kh*K + kw] * in[ci][h+kh-pad][w+kw-pad]
 *
 * @param bias Per-output-channel init, or nullptr for zero.
 */
void
directConvCore(float *od, const float *xd, const float *wd,
               const float *bias, std::size_t Mo, std::size_t Ci,
               std::size_t H, std::size_t W, std::size_t K)
{
    const std::size_t pad = K / 2;
    const std::size_t Hp = H + 2 * pad;
    const std::size_t Wp = W + 2 * pad;
    PooledScratch padded(Ci * Hp * Wp);
    float *pin = padded.data();
    padInput(pin, xd, Ci, H, W, pad);

    const std::size_t wstride = Ci * K * K;
    const std::size_t m_tiles = (Mo + kTileM - 1) / kTileM;
    const SimdOps &ops = simdOps();

    // Work items mirror the 8x8 diagonal PE grouping: one item is one
    // output row of one 8-out-channel tile. Consecutive items walk rows
    // of the same tile, so a chunk keeps its weight tile hot; the row
    // accumulator is per-chunk scratch from the executing worker's
    // arena. Every output element is written by exactly one item with
    // the serial accumulation order, so the split is bitwise invisible.
    intraOpParallelFor(
        kRowGrain, m_tiles * H, [&](std::size_t begin, std::size_t end) {
            PooledScratch scratch(kTileM * W);
            float *acc = scratch.data();
            for (std::size_t item = begin; item < end; item++) {
                const std::size_t m0 = (item / H) * kTileM;
                const std::size_t h = item % H;
                const std::size_t mt = std::min(kTileM, Mo - m0);
                for (std::size_t mi = 0; mi < mt; mi++) {
                    const float b = bias ? bias[m0 + mi] : 0.0f;
                    std::fill(acc + mi * W, acc + (mi + 1) * W, b);
                }
                for (std::size_t ci = 0; ci < Ci; ci++) {
                    // Padded row h+kh holds input row h+kh-pad (zeros
                    // when that row is outside the map).
                    const float *in_rows = pin + ci * Hp * Wp + h * Wp;
                    const float *wr0 = wd + (m0 * Ci + ci) * K * K;
                    for (std::size_t kh = 0; kh < K; kh++) {
                        const float *irow = in_rows + kh * Wp;
                        const float *wrow = wr0 + kh * K;
                        std::size_t mi = 0;
                        if (K == 3) {
                            // Fused 4-channel tap pass: twelve mul+add
                            // chains share the three row loads.
                            for (; mi + 4 <= mt; mi += 4) {
                                const float *wr = wrow + mi * wstride;
                                ops.rowTaps3x4(acc + mi * W, irow, wr,
                                               wr + wstride,
                                               wr + 2 * wstride,
                                               wr + 3 * wstride, W);
                            }
                            for (; mi < mt; mi++)
                                ops.rowTaps3(acc + mi * W, irow,
                                             wrow + mi * wstride, W);
                        } else {
                            for (; mi < mt; mi++)
                                addRowTapsGeneric(ops, acc + mi * W, irow,
                                                  wrow + mi * wstride, W,
                                                  K);
                        }
                    }
                }
                for (std::size_t mi = 0; mi < mt; mi++) {
                    float *orow = od + (m0 + mi) * H * W + h * W;
                    std::copy(acc + mi * W, acc + (mi + 1) * W, orow);
                }
            }
        });
}

/**
 * Weight-grad core on the padded input: each kernel tap is one clean
 * dot-product of the whole grad map with the tap-shifted padded map,
 * accumulated through the backend's fixed-16-lane accumDot16 kernel
 * (one zmm / two ymm / four q-regs across the sweep) — the reference
 * kernel's serial reduction chain becomes 16 concurrent chains per
 * tap, with a lane layout that is bitwise identical on every backend.
 */
void
backwardWeightsCore(float *ENODE_RESTRICT wd, const float *ENODE_RESTRICT pin,
                    const float *ENODE_RESTRICT gd, std::size_t M,
                    std::size_t C, std::size_t H, std::size_t W,
                    std::size_t K)
{
    constexpr std::size_t kLanes = 16;
    const std::size_t pad = K / 2;
    const std::size_t Hp = H + 2 * pad;
    const std::size_t Wp = W + 2 * pad;
    const SimdOps &ops = simdOps();

    // One work item per (m, c) kernel plane: K*K independent full-map
    // reductions, each computed start to finish inside its item (the
    // 16-lane partial accumulators reduce in the fixed lane order), so
    // the parallel gradient is bitwise identical to the serial one.
    intraOpParallelFor(1, M * C, [&](std::size_t begin, std::size_t end) {
        for (std::size_t mc = begin; mc < end; mc++) {
            const std::size_t m = mc / C;
            const std::size_t c = mc % C;
            const float *g_map = gd + m * H * W;
            const float *in_map = pin + c * Hp * Wp;
            float *w_base = wd + (m * C + c) * K * K;
            for (std::size_t kh = 0; kh < K; kh++)
                for (std::size_t kw = 0; kw < K; kw++) {
                    float lanes[kLanes] = {};
                    float tail = 0.0f;
                    for (std::size_t h = 0; h < H; h++) {
                        const float *ENODE_RESTRICT grow = g_map + h * W;
                        const float *ENODE_RESTRICT irow =
                            in_map + (h + kh) * Wp + kw;
                        ops.accumDot16(lanes, &tail, grow, irow, W);
                    }
                    float s = tail;
                    for (std::size_t j = 0; j < kLanes; j++)
                        s += lanes[j];
                    w_base[kh * K + kw] = s;
                }
        }
    });
}

} // namespace

void
convForwardInto(Tensor &out, const Tensor &x, const Tensor &weight,
                const Tensor &bias)
{
    ENODE_ASSERT(x.shape().rank() == 3, "convForward input must be CHW");
    ENODE_ASSERT(weight.shape().rank() == 4, "weight must be MCKK");
    const std::size_t C = x.shape().dim(0);
    const std::size_t K = weight.shape().dim(2);
    ENODE_ASSERT(weight.shape().dim(1) == C, "weight C mismatch: ",
                 weight.shape().dim(1), " vs ", C);
    ENODE_ASSERT(K % 2 == 1 && weight.shape().dim(3) == K,
                 "kernel must be odd square");
    const std::size_t M = weight.shape().dim(0);
    const std::size_t H = x.shape().dim(1);
    const std::size_t W = x.shape().dim(2);
    out.resize(Shape{M, H, W});
    directConvCore(out.data(), x.data(), weight.data(),
                   bias.empty() ? nullptr : bias.data(), M, C, H, W, K);
}

Tensor
convForward(const Tensor &x, const Tensor &weight, const Tensor &bias)
{
    Tensor out;
    convForwardInto(out, x, weight, bias);
    return out;
}

void
convBackwardDataInto(Tensor &grad_x, const Tensor &grad_out,
                     const Tensor &weight)
{
    ENODE_ASSERT(grad_out.shape().rank() == 3, "grad_out must be MHW");
    const std::size_t M = grad_out.shape().dim(0);
    const std::size_t H = grad_out.shape().dim(1);
    const std::size_t W = grad_out.shape().dim(2);
    const std::size_t C = weight.shape().dim(1);
    const std::size_t K = weight.shape().dim(2);
    ENODE_ASSERT(weight.shape().dim(0) == M, "weight M mismatch");

    // Pack the weights spatially flipped with C/M swapped, then run the
    // forward core: grad_x = conv(grad_out, pack). Packing is O(M*C*K*K)
    // — negligible next to the O(M*C*K*K*H*W) convolution.
    PooledScratch packed(M * C * K * K);
    float *pk = packed.data();
    const float *wd = weight.data();
    for (std::size_t c = 0; c < C; c++)
        for (std::size_t m = 0; m < M; m++) {
            const float *src = wd + (m * C + c) * K * K;
            float *dst = pk + (c * M + m) * K * K;
            for (std::size_t i = 0; i < K * K; i++)
                dst[i] = src[K * K - 1 - i];
        }

    grad_x.resize(Shape{C, H, W});
    directConvCore(grad_x.data(), grad_out.data(), pk, nullptr, C, M, H, W,
                   K);
}

Tensor
convBackwardData(const Tensor &grad_out, const Tensor &weight)
{
    Tensor grad_x;
    convBackwardDataInto(grad_x, grad_out, weight);
    return grad_x;
}

void
convBackwardWeightsInto(Tensor &grad_w, const Tensor &x,
                        const Tensor &grad_out, std::size_t kernel)
{
    ENODE_ASSERT(x.shape().rank() == 3 && grad_out.shape().rank() == 3,
                 "convBackwardWeights needs CHW tensors");
    const std::size_t C = x.shape().dim(0);
    const std::size_t H = x.shape().dim(1);
    const std::size_t W = x.shape().dim(2);
    const std::size_t M = grad_out.shape().dim(0);
    ENODE_ASSERT(grad_out.shape().dim(1) == H && grad_out.shape().dim(2) == W,
                 "spatial shape mismatch");
    const std::size_t K = kernel;
    const std::size_t pad = K / 2;
    grad_w.resize(Shape{M, C, K, K});

    if (K > kMaxFusedK || K % 2 == 0) {
        // Rare large- or even-tap case: fall back to the reference
        // reduction (the padded core assumes the symmetric K/2 halo of
        // the odd K <= 7 the library's layers use).
        grad_w = reference::convBackwardWeights(x, grad_out, K);
        return;
    }

    PooledScratch padded(C * (H + 2 * pad) * (W + 2 * pad));
    padInput(padded.data(), x.data(), C, H, W, pad);
    backwardWeightsCore(grad_w.data(), padded.data(), grad_out.data(), M, C,
                        H, W, K);
}

Tensor
convBackwardWeights(const Tensor &x, const Tensor &grad_out,
                    std::size_t kernel)
{
    Tensor grad_w;
    convBackwardWeightsInto(grad_w, x, grad_out, kernel);
    return grad_w;
}

void
convForwardBatchedInto(Tensor &out, const Tensor &xs, const Tensor &weight,
                       const Tensor &bias)
{
    ENODE_ASSERT(xs.shape().rank() == 4,
                 "batched convForward input must be NCHW, got ",
                 xs.shape().str());
    ENODE_ASSERT(weight.shape().rank() == 4, "weight must be MCKK");
    const std::size_t N = xs.shape().dim(0);
    const std::size_t C = xs.shape().dim(1);
    const std::size_t H = xs.shape().dim(2);
    const std::size_t W = xs.shape().dim(3);
    const std::size_t M = weight.shape().dim(0);
    const std::size_t K = weight.shape().dim(2);
    ENODE_ASSERT(weight.shape().dim(1) == C, "weight C mismatch: ",
                 weight.shape().dim(1), " vs ", C);
    ENODE_ASSERT(K % 2 == 1 && weight.shape().dim(3) == K,
                 "kernel must be odd square");
    out.resize(Shape{N, M, H, W});

    // The identical per-sample core: every sample's output is bitwise
    // the solo path's.
    const float *bd = bias.empty() ? nullptr : bias.data();
    const std::size_t in_stride = C * H * W;
    const std::size_t out_stride = M * H * W;
    for (std::size_t i = 0; i < N; i++)
        directConvCore(out.data() + i * out_stride,
                       xs.data() + i * in_stride, weight.data(), bd, M, C, H,
                       W, K);
}

} // namespace enode
