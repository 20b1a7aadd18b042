#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

/**
 * @file
 * Workload-independent pieces of the repository benchmark: the
 * statistics rules, the open-loop schedule, latency-from-due arithmetic,
 * the failure tally, the span ledger and the result report. Kept apart
 * from the workloads so the harness self-tests (tests/harness_test.cc)
 * can pin each rule down without running a server.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace_span.h"
#include "runtime/request.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from a to b (negative when b is earlier). */
double msBetween(Clock::time_point a, Clock::time_point b);

// --- statistics -----------------------------------------------------

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> values);

/** The q-quantile, q in [0, 1], interpolated linearly between the
 *  sorted samples around rank (n - 1) q; 0 when empty. */
double quantile(std::vector<double> values, double q);

/** A tail percentile together with what it was computed from. */
struct Tail
{
    double value = 0.0;
    double pct = 0.0;  ///< the percentile actually reported
    std::size_t n = 0; ///< samples it was computed over
};

/**
 * The highest whole percentile, at most `maxPct`, that leaves at least
 * `beyond` samples strictly above its rank. With fewer samples than
 * that rule allows even for the median, the maximum is reported with
 * pct = 100.
 */
Tail tailPercentile(std::vector<double> values, double maxPct = 99.0,
                    std::size_t beyond = 10);

// --- open-loop schedule ---------------------------------------------

/** One precomputed open-loop arrival. */
struct Arrival
{
    double dueMs = 0.0;        ///< offset from the phase start
    std::uint32_t stream = 0;  ///< priority stream
    double deadlineMs = 0.0;   ///< budget from the due time
    std::uint64_t inputSeed = 0;
};

/**
 * Poisson arrivals at `ratePerSec` over `seconds`, streams spread
 * uniformly over [firstStream, firstStream + numStreams), deadline
 * budgets of deadlineMs +- 25%. A pure function of its arguments.
 */
std::vector<Arrival> poissonSchedule(double ratePerSec, double seconds,
                                     std::uint32_t numStreams,
                                     std::uint32_t firstStream,
                                     double deadlineMs, std::uint64_t seed);

/** Lag and latency of one request, both measured from its due time. */
struct DueTiming
{
    double lagMs = 0.0;     ///< how late submit() was called
    double latencyMs = 0.0; ///< lag + the server's admission-to-done time
};

/** Latency from due: lag = submitAt - due; latency = lag + serverMs. */
DueTiming fromDue(Clock::time_point due, Clock::time_point submitAt,
                  double serverMs);

// --- failure accounting ---------------------------------------------

/**
 * Outcomes of every request the benchmark attempted. The denominator is
 * attempts, not admissions: a request refused at the queue counts as
 * attempted and failed, exactly like one shed, expired, failed,
 * cancelled or answered wrongly.
 */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;   ///< status Ok
    std::uint64_t good = 0; ///< Ok and within the deadline
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t wrong = 0; ///< Ok but failed an output check

    /** Count one attempt; `response` is null when it was rejected. */
    void add(const enode::InferResponse *response);

    /** Merge another phase's outcomes into this one. */
    Tally &operator+=(const Tally &other);

    std::uint64_t failures() const;
    double failedRatio() const;
};

// --- span ledger ----------------------------------------------------

/** Per-name totals of the recorded spans. */
struct SpanStats
{
    std::uint64_t count = 0;
    double totalMs = 0.0;
    /** Duration minus the time covered by spans nested inside it on
     *  the same thread. */
    double selfMs = 0.0;
    std::vector<double> durUs; ///< every duration, for percentiles
};

/**
 * Count, total and self time per span name. Nesting is by interval per
 * thread. Spans stamped backwards after the fact (request.queue_wait,
 * batch.collect) cover time the thread spent elsewhere, so they are
 * kept out of the nesting: their self time is their duration.
 */
std::map<std::string, SpanStats>
spanLedger(const std::vector<enode::TraceEvent> &events);

// --- report ---------------------------------------------------------

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; ///< printed next to the value, not in the JSON
};

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/**
 * The result line: one JSON object with the keys correct, attempted,
 * failed and metrics ({name: {value, unit}}), values at full precision.
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
