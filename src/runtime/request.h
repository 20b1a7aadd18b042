#ifndef ENODE_RUNTIME_REQUEST_H
#define ENODE_RUNTIME_REQUEST_H

/**
 * @file
 * Request/response types of the concurrent inference-serving runtime.
 *
 * A request is one NODE inference: an initial state, a stream tag (the
 * runtime analogue of the packet stream of Sec. V.B — higher tags are
 * favoured by the later-stream-first scheduler), and a deadline the
 * dispatcher uses to break ties between equal-priority streams. The
 * response carries the solved state plus the per-request accounting the
 * metrics registry aggregates into latency percentiles.
 */

#include <chrono>
#include <cstdint>

#include "ode/ivp.h"
#include "tensor/hash.h"
#include "tensor/tensor.h"

namespace enode {

/** Clock used for all runtime timing (monotonic). */
using RuntimeClock = std::chrono::steady_clock;

/** One gradient task of the training service (training_service.h). */
struct TrainTask;

/** One inference request offered to the serving runtime. */
struct InferRequest
{
    /** Assigned by the server at admission; unique per server. */
    std::uint64_t id = 0;

    /**
     * Stream tag: the priority class. Under SelectPolicy::
     * LaterStreamFirst, higher tags dispatch first, mirroring the
     * hardware priority selector's later-stream-first rule.
     */
    std::uint32_t stream = 0;

    /** Tie-breaker within a stream: tighter deadlines dispatch first. */
    RuntimeClock::time_point deadline = RuntimeClock::time_point::max();

    /** Initial state h(0) of the NODE forward pass. */
    Tensor input;

    /**
     * Exact-dedup cache key: digest of (model version, solver config,
     * input bytes), stamped at admission when the solve cache is on.
     * Invalid (all-zero) when caching is off — the serving paths then
     * skip every cache interaction for this request.
     */
    Hash128 cacheKey;

    /**
     * Warm-start signature: coarse quantized-statistics bucket of the
     * input (tensor/hash.h coarseSignature mixed with the model
     * version). 0 means "no signature" (warm tier off).
     */
    std::uint64_t warmSig = 0;

    /**
     * Model-registry version the request was admitted against. Workers
     * swap their replica to the latest published version at dispatch
     * boundaries; this stamp is what makes hot swaps safe for the
     * coalescing and caching layers — the batcher refuses to mix
     * versions in one batched solve, and a solve may only publish into
     * the cache when the replica that produced it still matches the
     * version its cache key was derived from.
     */
    std::uint64_t modelVersion = 0;

    /**
     * Non-null for gradient tasks of the training service: the worker
     * routes the entry to the training path (serveTrain) instead of an
     * inference solve. The pointed-to task outlives the request (the
     * TrainingService owns it for the whole step) and carries the
     * weight snapshot, target, and the fixed gradient slot the worker
     * writes into. Training entries bypass the inference metrics,
     * cache and admission layers entirely.
     */
    TrainTask *train = nullptr;
};

/** Terminal state of a request. */
enum class RequestStatus
{
    Ok,        ///< solved; output and stats are valid (see `degraded`)
    Cancelled, ///< dropped by a non-draining shutdown before dispatch
    /** Already past its deadline when a worker dequeued it; failed
     *  without spending a solve on a response that could only miss. */
    DeadlineExceeded,
    /** The solve failed beyond what the degradation ladder could
     *  recover (every rung failed, or the watchdog tripped). The
     *  output is empty — a failed request never carries a payload. */
    Failed,
    /**
     * Rejected by deadline-aware admission control: the cost model
     * estimated the request could not complete by its deadline (or
     * brownout level 3 shed its priority class), so it was refused at
     * submit — before occupying a queue slot, a worker, or a batch
     * seat. Counted admitted (the server took a decision on it), so
     * admitted == completed + expired + failed + cancelled + shed.
     */
    Shed,
};

/** Number of RequestStatus values (for exhaustive test matrices). */
constexpr std::size_t kNumRequestStatuses = 5;

/** Human-readable status name. */
const char *requestStatusName(RequestStatus status);

/** What the runtime returns for one request. */
struct InferResponse
{
    std::uint64_t id = 0;
    RequestStatus status = RequestStatus::Cancelled;

    /** h(T) after the last integration layer (empty when cancelled). */
    Tensor output;

    /** Solver accounting aggregated over the layers of this request. */
    IvpStats stats;

    /** Time spent queued before a worker picked the request up. */
    double queueWaitMs = 0.0;
    /** Time the worker spent inside NodeModel::forward. */
    double solveMs = 0.0;
    /** End-to-end: admission to completion. */
    double totalMs = 0.0;

    /** True when the request finished at or before its deadline. */
    bool deadlineMet = true;

    /**
     * True when the response was produced by the degradation ladder
     * (relaxed-tolerance retry or fixed-step fallback) rather than the
     * configured solve. `solveStatus` carries the originating failure.
     */
    bool degraded = false;

    /**
     * The solver status that triggered degradation or failure; Ok for
     * a clean first-attempt solve. For watchdog trips this reports
     * DeadlineExceeded (the hang budget is a runtime deadline).
     */
    SolveStatus solveStatus = SolveStatus::Ok;

    /** Relaxed-tolerance retry attempts spent on this request (0 or 1). */
    std::uint32_t retries = 0;

    /** Which worker served the request. */
    std::size_t workerId = 0;

    /**
     * How many requests shared the batched solve that produced this
     * response. 1 for a dispatch of one and for requests that never
     * reached a solve (cancelled / expired / cache hit).
     */
    std::size_t batchSize = 1;

    /**
     * Global completion sequence number (0 = first request finished by
     * any worker). Tests use this to assert priority ordering.
     */
    std::uint64_t completionIndex = 0;

    /**
     * True when the output came from the exact-dedup cache (either an
     * immediate hit or single-flight delivery off another request's
     * solve) — bitwise identical to a fresh solve, with zero solver
     * work attributed to this request (`stats` is empty).
     */
    bool cacheHit = false;

    /**
     * True when the solve replayed at least one step of a cached
     * dt-schedule (tier-2 warm start). The output is this request's own
     * solve, within solver tolerance of a cold solve.
     */
    bool warmStarted = false;

    /**
     * True when the rung-0 solve ran at brownout-relaxed tolerance
     * (proactive degradation of a low-priority stream under load, see
     * OverloadOptions). The response is still Ok and finite, but its
     * accuracy is that of the relaxed tolerance — and it never
     * populates the solve cache, whose keys embed the configured one.
     */
    bool brownoutRelaxed = false;

    /** Registry version of the weights this response was served with. */
    std::uint64_t modelVersion = 0;
};

} // namespace enode

#endif // ENODE_RUNTIME_REQUEST_H
