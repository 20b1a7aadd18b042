#include "runtime/admission.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/trace_span.h"
#include "tensor/hash.h"

namespace enode {

namespace {

double
toMs(RuntimeClock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

} // namespace

std::uint64_t
shapeKeyOf(const Tensor &t)
{
    // Rank-prefixed dim chain through mix64 so {4, 8} and {8, 4} (and
    // {32} vs {32, 1}) land in different cost-model rows.
    std::uint64_t key = mix64(0x9e3779b97f4a7c15ull ^ t.shape().rank());
    for (std::size_t dim : t.shape().dims())
        key = mix64(key ^ dim);
    return key;
}

AdmissionController::AdmissionController(OverloadOptions options,
                                         std::size_t numWorkers)
    : options_(options), numWorkers_(std::max<std::size_t>(1, numWorkers))
{
    ENODE_ASSERT(options_.ewmaAlpha > 0.0 && options_.ewmaAlpha <= 1.0,
                 "ewmaAlpha must be in (0, 1]");
    ENODE_ASSERT(options_.hysteresisRatio > 0.0 &&
                     options_.hysteresisRatio <= 1.0,
                 "hysteresisRatio must be in (0, 1]");
    ENODE_ASSERT(options_.targetDelayMs > 0.0,
                 "targetDelayMs must be > 0");
    ENODE_ASSERT(options_.level1Enter > 0.0 &&
                     options_.level2Enter >= options_.level1Enter &&
                     options_.level3Enter >= options_.level2Enter,
                 "brownout entry scores must be positive and ordered");
    ENODE_ASSERT(options_.exitRatio > 0.0 && options_.exitRatio < 1.0,
                 "exitRatio must be in (0, 1)");
    ENODE_ASSERT(options_.brownoutToleranceFactor >= 1.0,
                 "brownoutToleranceFactor must be >= 1");
    const auto now = RuntimeClock::now();
    levelSince_ = now;
    lastTransition_ = now - std::chrono::hours(1); // first move is free
}

double
AdmissionController::estimateLocked(std::uint64_t shapeKey,
                                    std::size_t queueDepth) const
{
    // Completion estimate = time for the pool to drain what is queued
    // ahead (mix-wide per-request service cost) + this request's own
    // solve (per-shape cost, falling back to the mix-wide dispatch
    // cost for a shape the model has not seen).
    // Two drain models, take the slower: the idealized one (dispatch
    // cost spread over the pool) and the realized one (measured gap
    // between consecutive completions, which already prices in
    // contention between workers).
    double per_request = serviceMs_.count > 0
                             ? serviceMs_.value /
                                   static_cast<double>(numWorkers_)
                             : 0.0;
    if (completionGapMs_.count > 0)
        per_request = std::max(per_request, completionGapMs_.value);
    const double drain = static_cast<double>(queueDepth) * per_request;
    const auto it = shapeCostMs_.find(shapeKey);
    const double own = it != shapeCostMs_.end() ? it->second.value
                       : serviceMs_.count > 0  ? serviceMs_.value
                                               : 0.0;
    return drain + own;
}

double
AdmissionController::estimateMs(std::uint64_t shapeKey,
                                std::size_t queueDepth) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return estimateLocked(shapeKey, queueDepth);
}

double
AdmissionController::loadScoreLocked() const
{
    // Queue delay normalized by the defended target, plus the recent
    // shed fraction: heavy shedding is itself an overload signal even
    // when the queue stays short *because* of it.
    return queueDelayMs_.value / options_.targetDelayMs + shedRate_;
}

void
AdmissionController::updateLevelLocked(RuntimeClock::time_point now)
{
    const int current = level_.load(std::memory_order_relaxed);
    const double score = loadScoreLocked();
    const double enter[4] = {0.0, options_.level1Enter,
                             options_.level2Enter, options_.level3Enter};

    int desired = current;
    // Climb: the highest level whose entry score is met. Queue delay
    // with idle workers is not load (a paused or draining server), so
    // the ladder never engages below the occupancy floor.
    if (occupancy_.count > 0 && occupancy_.value >= options_.occupancyFloor) {
        for (int l = 3; l > current; l--) {
            if (score >= enter[l]) {
                desired = l;
                break;
            }
        }
    }
    // Descend one level at a time, each requiring the score to fall to
    // the exit fraction of that level's entry bar (the ladder's own
    // hysteresis band).
    while (desired > 0 && desired == current &&
           score <= options_.exitRatio * enter[desired])
        desired--;
    if (desired == current)
        return;
    if (toMs(now - lastTransition_) < options_.minDwellMs)
        return; // dwell: no flapping on one noisy observation

    residencyMs_[current] += toMs(now - levelSince_);
    levelSince_ = now;
    lastTransition_ = now;
    transitions_++;
    level_.store(desired, std::memory_order_relaxed);
    Tracer::instance().instant(
        desired > current ? "overload.enter" : "overload.exit", "overload",
        {{"level", static_cast<double>(desired)},
         {"from", static_cast<double>(current)},
         {"score", score}});
    ENODE_WARN("brownout level ", current, " -> ", desired,
               " (load score ", score, ", queue delay EWMA ",
               queueDelayMs_.value, " ms)");
}

AdmissionController::Verdict
AdmissionController::admit(std::uint64_t shapeKey, std::uint32_t stream,
                           double budgetMs, std::size_t queueDepth)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Verdict v;
    v.estimateMs = estimateLocked(shapeKey, queueDepth);

    bool shed = false;
    if (budgetMs <= 0.0) {
        // Already past its deadline at submit: no model needed — it
        // cannot complete in time, so it never takes a queue slot.
        shed = true;
    } else if (level_.load(std::memory_order_relaxed) >= 3 &&
               stream <= options_.lowPriorityMax) {
        // Brownout level 3: low-priority traffic is shed outright so
        // the remaining capacity serves the higher streams.
        shed = true;
    } else if (totalObservations_ >= options_.minObservations) {
        // Deadline-estimate shedding, with hysteresis: once shedding,
        // re-admission needs the estimate comfortably inside the
        // budget, not merely at it.
        if (!shedding_)
            shed = v.estimateMs > budgetMs;
        else
            shed = v.estimateMs > options_.hysteresisRatio * budgetMs;
        shedding_ = shed;
    }

    // Shed fraction of recent admissions (monitor input), then give the
    // ladder a chance to move — shed-driven overload must be able to
    // raise the level even when nothing is being dequeued.
    shedRate_ = (1.0 - options_.ewmaAlpha) * shedRate_ +
                options_.ewmaAlpha * (shed ? 1.0 : 0.0);
    if (shed)
        sheds_++;
    updateLevelLocked(RuntimeClock::now());

    v.shed = shed;
    return v;
}

void
AdmissionController::observeSolve(std::uint64_t shapeKey, double dispatchMs,
                                  std::size_t batchSize)
{
    const std::size_t n = std::max<std::size_t>(1, batchSize);
    const auto now = RuntimeClock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    shapeCostMs_[shapeKey].add(dispatchMs, options_.ewmaAlpha);
    serviceMs_.add(dispatchMs / static_cast<double>(n),
                   options_.ewmaAlpha);
    if (hasLastCompletion_) {
        const double gap_ms = toMs(now - lastCompletionAt_);
        // Gaps above a second are idle time, not drain rate — an idle
        // server would otherwise poison the estimate for the next burst.
        if (gap_ms < 1000.0)
            completionGapMs_.add(gap_ms / static_cast<double>(n),
                                 options_.ewmaAlpha);
    }
    lastCompletionAt_ = now;
    hasLastCompletion_ = true;
    totalObservations_++;
}

void
AdmissionController::observeQueueDelay(double queueWaitMs, double occupancy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    queueDelayMs_.add(queueWaitMs, options_.ewmaAlpha);
    occupancy_.add(occupancy, options_.ewmaAlpha);
    updateLevelLocked(RuntimeClock::now());
}

void
AdmissionController::noteRelaxed()
{
    std::lock_guard<std::mutex> lock(mutex_);
    relaxed_++;
}

std::uint64_t
AdmissionController::sheds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sheds_;
}

std::uint64_t
AdmissionController::relaxedSolves() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return relaxed_;
}

std::uint64_t
AdmissionController::transitions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return transitions_;
}

double
AdmissionController::levelResidencyMs(int level) const
{
    ENODE_ASSERT(level >= 0 && level < 4, "brownout level out of range");
    std::lock_guard<std::mutex> lock(mutex_);
    double ms = residencyMs_[level];
    // The current level's open interval counts too, so residency adds
    // up to elapsed time at any query point.
    if (level == level_.load(std::memory_order_relaxed))
        ms += toMs(RuntimeClock::now() - levelSince_);
    return ms;
}

StatGroup
AdmissionController::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StatGroup group("overload");
    const int level = level_.load(std::memory_order_relaxed);
    group.set("overload.brownout_level", static_cast<double>(level));
    group.setCounter("overload.sheds", sheds_);
    group.setCounter("overload.relaxed_solves", relaxed_);
    group.setCounter("overload.transitions", transitions_);
    group.set("overload.load_score", loadScoreLocked());
    group.set("overload.shed_rate", shedRate_);
    group.set("overload.queue_delay_ewma_ms", queueDelayMs_.value);
    group.set("overload.occupancy_ewma", occupancy_.value);
    group.set("overload.service_ewma_ms", serviceMs_.value);
    for (int l = 0; l < 4; l++) {
        double ms = residencyMs_[l];
        if (l == level)
            ms += toMs(RuntimeClock::now() - levelSince_);
        group.setCounter("overload.residency_l" + std::to_string(l) + "_ms",
                         ms);
    }
    return group;
}

} // namespace enode
