#ifndef ENODE_RUNTIME_METRICS_H
#define ENODE_RUNTIME_METRICS_H

/**
 * @file
 * Thread-safe serving metrics.
 *
 * Workers record one completion sample per request (queue wait, solve
 * latency, end-to-end latency, f-evals, search trials); the registry
 * summarizes them as p50/p95/p99 percentiles through common/stats
 * SampleSeries and publishes a StatGroup snapshot benches and the
 * example server print. All mutators take one internal mutex — request
 * rates are far below the contention regime where sharded counters
 * would matter.
 */

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/stats.h"
#include "runtime/request.h"

namespace enode {

/**
 * The registry's event counts, each one monotone since the server
 * started. MetricsRegistry keeps one instance and records into it;
 * snapshot() publishes every field as a counter.
 */
struct MetricsCounts
{
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deadlineMisses = 0;

    /** Failed at dequeue: deadline already missed (never solved). */
    std::uint64_t expired = 0;
    /** Terminal failures (ladder exhausted or watchdog trip). */
    std::uint64_t failed = 0;
    /** Refused by deadline-aware admission control at submit. */
    std::uint64_t shed = 0;
    /** Refused at submit: the model cannot take the input's shape. */
    std::uint64_t invalid = 0;
    /** Ok responses solved at brownout-relaxed tolerance. */
    std::uint64_t brownoutRelaxed = 0;
    /** Ok responses produced by the degradation ladder. */
    std::uint64_t degraded = 0;
    /** Relaxed-tolerance retry attempts across all requests. */
    std::uint64_t retries = 0;
    /** Watchdog hang-threshold trips. */
    std::uint64_t watchdogTrips = 0;

    /** Per-failure-class counters (originating SolveStatus of every
     *  degraded or failed response). */
    std::uint64_t solveNonFinite = 0;
    std::uint64_t solveStepUnderflow = 0;
    std::uint64_t solveTrialBudget = 0;
    std::uint64_t solveEvalBudget = 0;
    std::uint64_t solveDeadline = 0;

    /** Ok responses answered from the exact-dedup cache. */
    std::uint64_t cacheHits = 0;
    /** Ok responses whose solve replayed a cached dt-schedule. */
    std::uint64_t warmStarted = 0;

    /** Batched solves dispatched (each covers >= 1 request). */
    std::uint64_t batchesDispatched = 0;
    /** Requests carried by those batched solves. Reconciliation: every
     *  batched request terminates through recordCompletion, so this
     *  never exceeds completed + expired + failed. */
    std::uint64_t batchedRequests = 0;
    /** Batches whose samples mixed Ok and non-Ok outcomes. */
    std::uint64_t partialFailures = 0;
    /** batchSizeCounts[i] = batches dispatched with size i + 1, grown
     *  to the largest batch seen, so sizes count exactly at any
     *  maxBatch. */
    std::vector<std::uint64_t> batchSizeCounts;
};

/** Aggregated view of the serving metrics (one consistent snapshot). */
struct MetricsSummary : MetricsCounts
{
    double queueWaitP50Ms = 0.0, queueWaitP95Ms = 0.0, queueWaitP99Ms = 0.0;
    double solveP50Ms = 0.0, solveP95Ms = 0.0, solveP99Ms = 0.0;
    double totalP50Ms = 0.0, totalP95Ms = 0.0, totalP99Ms = 0.0;
    double totalMaxMs = 0.0;
    /** End-to-end latency of degraded (retried / fallback) responses. */
    double degradedP50Ms = 0.0, degradedP95Ms = 0.0, degradedP99Ms = 0.0;

    /** Mean f-evals / search trials per *solved* Ok response (cache
     *  hits, which do no solver work, are excluded from both). */
    double meanFEvals = 0.0;
    double meanTrials = 0.0;

    /** Mean accepted-trials per evaluation point, split by whether the
     *  solve replayed a cached schedule — the bench's headline for the
     *  tier-2 win (cold search pays multiple trials per point; a good
     *  replay pays ~1). */
    double trialsPerPointWarm = 0.0;
    double trialsPerPointCold = 0.0;

    /** Mean requests per dispatched batch (0 when none). */
    double batchOccupancyMean = 0.0;
};

/** Thread-safe per-request metrics collection. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    void recordAdmitted();
    void recordRejected();
    void recordWatchdogTrip();

    /** One batched solve dispatched carrying `size` requests. */
    void recordBatchDispatch(std::size_t size);
    /** A batch finished with a mix of Ok and non-Ok samples. */
    void recordPartialFailure();

    /**
     * Record a terminal response — the single source of truth for
     * every terminal state, Cancelled included (shutdown builds a
     * Cancelled response per undrained request and routes it here, so
     * nothing is ever double-counted). Counts the response by status,
     * classifies degraded/failed responses by their originating
     * SolveStatus, and feeds the latency series for Ok responses.
     * Invariant: admitted == completed + expired + failed + cancelled
     * + shed + invalid once the server has stopped.
     */
    void recordCompletion(const InferResponse &response);

    /** One consistent summary of everything recorded so far. */
    MetricsSummary summary() const;

    /**
     * Flat StatGroup snapshot ("requests.completed",
     * "latency.total.p99_ms", ...) for table/report plumbing and the
     * exposition: every MetricsCounts field is set as a counter, the
     * percentiles and means as gauges.
     */
    StatGroup snapshot(const std::string &group_name = "runtime") const;

  private:
    /** Bump the counter of the response's originating failure class. */
    void countFailureClassLocked(SolveStatus status);

    mutable std::mutex mutex_;
    MetricsCounts counts_;
    SampleSeries queueWaitMs_;
    SampleSeries solveMs_;
    SampleSeries totalMs_;
    SampleSeries degradedMs_;
    SampleSeries fEvals_;
    SampleSeries trials_;
    SampleSeries trialsPerPointWarm_;
    SampleSeries trialsPerPointCold_;
};

} // namespace enode

#endif // ENODE_RUNTIME_METRICS_H
