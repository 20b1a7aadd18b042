#include "runtime/metrics.h"

#include "common/logging.h"

namespace enode {

void
MetricsRegistry::recordAdmitted()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.admitted++;
}

void
MetricsRegistry::recordRejected()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.rejected++;
}

void
MetricsRegistry::recordWatchdogTrip()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.watchdogTrips++;
}

void
MetricsRegistry::recordBatchDispatch(std::size_t size)
{
    ENODE_ASSERT(size >= 1, "a dispatched batch carries >= 1 request");
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.batchesDispatched++;
    counts_.batchedRequests += size;
    std::vector<std::uint64_t> &sizes = counts_.batchSizeCounts;
    if (sizes.size() < size)
        sizes.resize(size, 0);
    sizes[size - 1]++;
}

void
MetricsRegistry::recordPartialFailure()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.partialFailures++;
}

void
MetricsRegistry::countFailureClassLocked(SolveStatus status)
{
    switch (status) {
      case SolveStatus::Ok:
        return;
      case SolveStatus::NonFinite:
        counts_.solveNonFinite++;
        return;
      case SolveStatus::StepUnderflow:
        counts_.solveStepUnderflow++;
        return;
      case SolveStatus::TrialBudgetExhausted:
        counts_.solveTrialBudget++;
        return;
      case SolveStatus::EvalBudgetExhausted:
        counts_.solveEvalBudget++;
        return;
      case SolveStatus::DeadlineExceeded:
        counts_.solveDeadline++;
        return;
    }
    ENODE_PANIC("unknown SolveStatus");
}

void
MetricsRegistry::recordCompletion(const InferResponse &response)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!response.deadlineMet)
        counts_.deadlineMisses++;
    counts_.retries += response.retries;
    switch (response.status) {
      case RequestStatus::Ok:
        counts_.completed++;
        if (response.brownoutRelaxed)
            counts_.brownoutRelaxed++;
        queueWaitMs_.add(response.queueWaitMs);
        solveMs_.add(response.solveMs);
        totalMs_.add(response.totalMs);
        if (response.cacheHit) {
            // No solver work behind this response; feeding its zero
            // stats into the solver series would make cache hits look
            // like impossibly cheap solves.
            counts_.cacheHits++;
        } else {
            fEvals_.add(static_cast<double>(response.stats.fEvals));
            trials_.add(static_cast<double>(response.stats.trials));
            if (response.warmStarted)
                counts_.warmStarted++;
            if (response.stats.evalPoints > 0) {
                const double tpp =
                    static_cast<double>(response.stats.trials) /
                    static_cast<double>(response.stats.evalPoints);
                (response.warmStarted ? trialsPerPointWarm_
                                      : trialsPerPointCold_)
                    .add(tpp);
            }
        }
        if (response.degraded) {
            counts_.degraded++;
            degradedMs_.add(response.totalMs);
            countFailureClassLocked(response.solveStatus);
        }
        return;
      case RequestStatus::DeadlineExceeded:
        counts_.expired++;
        return;
      case RequestStatus::Failed:
        counts_.failed++;
        countFailureClassLocked(response.solveStatus);
        return;
      case RequestStatus::Cancelled:
        // Shutdown routes each undrained request here exactly once;
        // this is the only place cancellations are counted.
        counts_.cancelled++;
        return;
      case RequestStatus::Shed:
        // Refused at submit by admission control: counted admitted (a
        // decision was taken), terminal here, never queued or solved.
        counts_.shed++;
        return;
      case RequestStatus::InvalidInput:
        // Refused at submit like Shed: the model cannot take its shape.
        counts_.invalid++;
        return;
    }
    ENODE_PANIC("unknown RequestStatus");
}

MetricsSummary
MetricsRegistry::summary() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSummary s;
    static_cast<MetricsCounts &>(s) = counts_;
    s.queueWaitP50Ms = queueWaitMs_.percentile(50.0);
    s.queueWaitP95Ms = queueWaitMs_.percentile(95.0);
    s.queueWaitP99Ms = queueWaitMs_.percentile(99.0);
    s.solveP50Ms = solveMs_.percentile(50.0);
    s.solveP95Ms = solveMs_.percentile(95.0);
    s.solveP99Ms = solveMs_.percentile(99.0);
    s.totalP50Ms = totalMs_.percentile(50.0);
    s.totalP95Ms = totalMs_.percentile(95.0);
    s.totalP99Ms = totalMs_.percentile(99.0);
    s.totalMaxMs = totalMs_.max();
    s.degradedP50Ms = degradedMs_.percentile(50.0);
    s.degradedP95Ms = degradedMs_.percentile(95.0);
    s.degradedP99Ms = degradedMs_.percentile(99.0);
    s.meanFEvals = fEvals_.mean();
    s.meanTrials = trials_.mean();
    s.trialsPerPointWarm = trialsPerPointWarm_.mean();
    s.trialsPerPointCold = trialsPerPointCold_.mean();
    s.batchOccupancyMean =
        s.batchesDispatched ? static_cast<double>(s.batchedRequests) /
                                  static_cast<double>(s.batchesDispatched)
                            : 0.0;
    return s;
}

StatGroup
MetricsRegistry::snapshot(const std::string &group_name) const
{
    const MetricsSummary s = summary();
    StatGroup group(group_name);
    group.setCounter("requests.admitted", s.admitted);
    group.setCounter("requests.rejected", s.rejected);
    group.setCounter("requests.completed", s.completed);
    group.setCounter("requests.cancelled", s.cancelled);
    group.setCounter("requests.expired", s.expired);
    group.setCounter("requests.failed", s.failed);
    group.setCounter("requests.shed", s.shed);
    group.setCounter("requests.invalid", s.invalid);
    group.setCounter("requests.brownout_relaxed", s.brownoutRelaxed);
    group.setCounter("requests.deadline_misses", s.deadlineMisses);
    group.setCounter("requests.cache_hits", s.cacheHits);
    group.setCounter("requests.warm_started", s.warmStarted);
    group.setCounter("solve.non_finite", s.solveNonFinite);
    group.setCounter("solve.step_underflow", s.solveStepUnderflow);
    group.setCounter("solve.trial_budget", s.solveTrialBudget);
    group.setCounter("solve.eval_budget", s.solveEvalBudget);
    group.setCounter("solve.deadline_exceeded", s.solveDeadline);
    group.setCounter("solve.degraded", s.degraded);
    group.setCounter("solve.retries", s.retries);
    group.setCounter("watchdog.trips", s.watchdogTrips);
    group.setCounter("batch.dispatched", s.batchesDispatched);
    group.setCounter("batch.requests", s.batchedRequests);
    group.setCounter("batch.partial_failure", s.partialFailures);
    // Only populated sizes, so a batch-of-1 server does not dump a row
    // per size up to its largest batch into every snapshot.
    for (std::size_t i = 0; i < s.batchSizeCounts.size(); i++)
        if (s.batchSizeCounts[i] > 0)
            group.setCounter("batch.size.bin_" + std::to_string(i + 1),
                             s.batchSizeCounts[i]);
    group.set("latency.queue_wait.p50_ms", s.queueWaitP50Ms);
    group.set("latency.queue_wait.p95_ms", s.queueWaitP95Ms);
    group.set("latency.queue_wait.p99_ms", s.queueWaitP99Ms);
    group.set("latency.solve.p50_ms", s.solveP50Ms);
    group.set("latency.solve.p95_ms", s.solveP95Ms);
    group.set("latency.solve.p99_ms", s.solveP99Ms);
    group.set("latency.total.p50_ms", s.totalP50Ms);
    group.set("latency.total.p95_ms", s.totalP95Ms);
    group.set("latency.total.p99_ms", s.totalP99Ms);
    group.set("latency.total.max_ms", s.totalMaxMs);
    group.set("latency.degraded.p50_ms", s.degradedP50Ms);
    group.set("latency.degraded.p95_ms", s.degradedP95Ms);
    group.set("latency.degraded.p99_ms", s.degradedP99Ms);
    group.set("solver.mean_f_evals", s.meanFEvals);
    group.set("solver.mean_trials", s.meanTrials);
    group.set("solver.trials_per_point.warm_mean", s.trialsPerPointWarm);
    group.set("solver.trials_per_point.cold_mean", s.trialsPerPointCold);
    group.set("batch.occupancy_mean", s.batchOccupancyMean);
    return group;
}

} // namespace enode
