#ifndef ENODE_RUNTIME_ADMISSION_H
#define ENODE_RUNTIME_ADMISSION_H

/**
 * @file
 * Deadline-aware admission control and the brownout ladder.
 *
 * Adaptive solvers make compute cost input-dependent, so under open-loop
 * load the server must decide *at submit* whether a request can still
 * meet its deadline — not discover overload one deadline miss at a time.
 * The AdmissionController keeps an EWMA cost model of recent solve
 * durations (per input shape, batch-normalized) and of observed queue
 * delay, gives every incoming request a completion estimate, and sheds
 * requests whose estimate exceeds their budget with a new terminal
 * status (RequestStatus::Shed) before they occupy a queue slot, a
 * worker, or a batch seat.
 *
 * The same controller runs the brownout ladder: a load monitor over
 * queue delay, worker occupancy and shed rate drives graduated
 * *proactive* degradation, reusing the PR 4 ladder rungs as policy —
 *   level 1: relax rung-0 solver tolerance for low-priority streams
 *            (the voluntary analogue of the ladder's relaxed retry),
 *   level 2: no further degradation (the request queue never waits
 *            for company, so there is no collect window to shrink); the
 *            level keeps its entry score, dwell and residency, so the
 *            ladder still climbs and descends through it,
 *   level 3: additionally shed low-priority requests outright at
 *            admission.
 * Every level transition is traced (overload.enter / overload.exit
 * instants) and counted; snapshot() exposes the whole state for the
 * Prometheus exposition.
 *
 * Hysteresis appears twice, deliberately: the shed decision is a
 * two-threshold state machine (once shedding, a request must clear a
 * *stricter* bar to be admitted again), and brownout levels only move
 * after a minimum dwell and exit at a fraction of their entry score —
 * so neither the estimator nor the ladder can flap on one noisy sample.
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/stats.h"
#include "runtime/request.h"
#include "tensor/tensor.h"

namespace enode {

/** Overload-control knobs (ServerOptions::overload). */
struct OverloadOptions
{
    /** Master switch; disabled keeps admission a blind queue push. */
    bool enabled = false;

    /** EWMA weight of the newest observation (cost model + monitor). */
    double ewmaAlpha = 0.25;

    /**
     * Completions the cost model must see before deadline-estimate
     * shedding activates — an unwarmed model must not reject traffic.
     * (A request whose deadline has already lapsed at submit is shed
     * regardless: that verdict needs no model.)
     */
    std::uint64_t minObservations = 8;

    /**
     * While the controller is in its shedding state, a request is
     * admitted only when its estimate fits within this fraction of its
     * budget — the stricter re-entry bar of the hysteresis pair.
     */
    double hysteresisRatio = 0.7;

    /** Queue delay (ms) the brownout ladder defends; the monitor's
     *  load score is observed-delay-EWMA / targetDelayMs. */
    double targetDelayMs = 25.0;

    /** Load scores at which levels 1..3 engage. */
    double level1Enter = 1.0;
    double level2Enter = 2.0;
    double level3Enter = 4.0;

    /** A level exits once the score falls to exitRatio * its entry
     *  score (scores between the two bounds hold the level). */
    double exitRatio = 0.5;

    /** Minimum milliseconds between level transitions. */
    double minDwellMs = 100.0;

    /** Mean worker occupancy below which the ladder never engages:
     *  queue delay with idle workers is not load-induced. */
    double occupancyFloor = 0.5;

    /** Streams <= this tag are "low priority": relaxed first (level 1),
     *  shed first (level 3). Higher streams keep full service until
     *  their own deadline estimates fail. */
    std::uint32_t lowPriorityMax = 0;

    /** Rung-0 tolerance multiplier for brownout-relaxed solves. */
    double brownoutToleranceFactor = 10.0;
};

/** Stable key of a tensor's shape for the per-shape cost model. */
std::uint64_t shapeKeyOf(const Tensor &t);

/**
 * EWMA cost model + shed state machine + brownout monitor. One instance
 * per server; every method is thread-safe. Hot-path reads (level,
 * relax predicate) are single relaxed atomic loads.
 */
class AdmissionController
{
  public:
    AdmissionController(OverloadOptions options, std::size_t numWorkers);

    /** Verdict of one admission check. */
    struct Verdict
    {
        bool shed = false;
        /** Estimated completion time (ms from now) behind the verdict. */
        double estimateMs = 0.0;
    };

    /**
     * Decide one request's admission.
     *
     * @param shapeKey shapeKeyOf(input): selects the cost-model row.
     * @param stream Priority class (level-3 brownout sheds low ones).
     * @param budgetMs Time to deadline at submit; may be huge (no
     *        deadline) or <= 0 (already lapsed — always shed).
     * @param queueDepth Current queue occupancy.
     */
    Verdict admit(std::uint64_t shapeKey, std::uint32_t stream,
                  double budgetMs, std::size_t queueDepth);

    /**
     * Feed one finished dispatch into the cost model.
     * @param shapeKey Shape of the solved input(s).
     * @param dispatchMs Wall time of the whole dispatch.
     * @param batchSize Requests the dispatch served (>= 1).
     */
    void observeSolve(std::uint64_t shapeKey, double dispatchMs,
                      std::size_t batchSize);

    /**
     * Feed one dequeue observation into the brownout monitor.
     * @param queueWaitMs How long the dequeued request sat queued.
     * @param occupancy activeWorkers / numWorkers at dequeue.
     */
    void observeQueueDelay(double queueWaitMs, double occupancy);

    /** Completion estimate (ms) for a hypothetical request; exposed for
     *  tests and the exposition. */
    double estimateMs(std::uint64_t shapeKey, std::size_t queueDepth) const;

    /** Current brownout level (0 = normal .. 3). */
    int level() const { return level_.load(std::memory_order_relaxed); }

    /** Should this stream's rung-0 solve run at relaxed tolerance? */
    bool relaxTolerance(std::uint32_t stream) const
    {
        return level() >= 1 && stream <= options_.lowPriorityMax;
    }

    /** Count one brownout-relaxed solve (called by the serving paths). */
    void noteRelaxed();

    std::uint64_t sheds() const;
    std::uint64_t relaxedSolves() const;
    /** Level transitions (enter + exit) since construction. */
    std::uint64_t transitions() const;
    /** Milliseconds spent at `level` so far (0..3). */
    double levelResidencyMs(int level) const;

    /** Prometheus-ready snapshot ("overload.*" keys). */
    StatGroup snapshot() const;

    const OverloadOptions &options() const { return options_; }

  private:
    struct Ewma
    {
        double value = 0.0;
        std::uint64_t count = 0;

        void add(double x, double alpha)
        {
            value = count == 0 ? x : (1.0 - alpha) * value + alpha * x;
            count++;
        }
    };

    double estimateLocked(std::uint64_t shapeKey,
                          std::size_t queueDepth) const;
    /** Re-evaluate the brownout level from the monitor EWMAs. */
    void updateLevelLocked(RuntimeClock::time_point now);
    double loadScoreLocked() const;

    const OverloadOptions options_;
    const std::size_t numWorkers_;

    mutable std::mutex mutex_;
    /** Per-shape dispatch cost (ms per dispatch of that shape). */
    std::unordered_map<std::uint64_t, Ewma> shapeCostMs_;
    /** Per-request service cost (dispatch ms / batch size): how fast
     *  the pool drains the queue, whatever the mix. */
    Ewma serviceMs_;
    /** Pool-wide gap between consecutive completions, per request: the
     *  *realized* drain interval, which under contention (more workers
     *  than cores, lock pressure) runs slower than serviceMs_ /
     *  numWorkers predicts. The drain estimate takes the slower of the
     *  two models. */
    Ewma completionGapMs_;
    RuntimeClock::time_point lastCompletionAt_;
    bool hasLastCompletion_ = false;
    /** Observed queue delay and occupancy (brownout monitor inputs). */
    Ewma queueDelayMs_;
    Ewma occupancy_;
    /** Shed fraction of recent admission decisions (monitor input). */
    double shedRate_ = 0.0;
    bool shedding_ = false;
    std::uint64_t totalObservations_ = 0;
    std::uint64_t sheds_ = 0;
    std::uint64_t relaxed_ = 0;
    std::uint64_t transitions_ = 0;
    double residencyMs_[4] = {0.0, 0.0, 0.0, 0.0};
    RuntimeClock::time_point levelSince_;
    RuntimeClock::time_point lastTransition_;
    std::atomic<int> level_{0};
};

} // namespace enode

#endif // ENODE_RUNTIME_ADMISSION_H
