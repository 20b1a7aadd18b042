#ifndef ENODE_ODE_WARM_START_H
#define ENODE_ODE_WARM_START_H

/**
 * @file
 * Cross-solve stepsize warm-starting (ROADMAP: "Solver warm-starting
 * and trajectory memoization").
 *
 * The paper's slope-adaptive search (Sec. VII.A) learns good step
 * sizes *within* one solve; production traffic repeats similar initial
 * conditions millions of times, so the accepted dt-schedule of one
 * solve is the best first guess for the next solve of a similar input.
 * This file holds the two pieces the serving cache composes:
 *
 *  - DtSchedule: the accepted step sizes of a completed solve, one
 *    segment per integration layer (the solver resets the controller
 *    at every layer boundary, which is what delimits segments).
 *  - WarmStartController: a StepController decorator that *replays* a
 *    schedule as first-trial proposals — one trial per evaluation
 *    point while the replay holds — and falls back to the wrapped
 *    adaptive controller the moment a replayed trial is rejected. The
 *    wrapped controller observes every accept/reject either way, so
 *    its internal state is exactly as warm at fallback time as it
 *    would have been on a cold solve.
 *
 * The decorator also *records* the accepted schedule of the solve it
 * fronts (it sees every accepted() callback), so a clean solve's
 * schedule can be harvested and cached without any solver-core change;
 * recording reuses its buffers across solves and performs no
 * steady-state allocation once segment capacity has grown to the
 * workload's step counts.
 *
 * Replay is a hint, never a contract: correctness is entirely owned by
 * the error test in the IVP driver. A stale or mismatched schedule
 * costs at worst one rejected trial before the adaptive search takes
 * over — the cold-path behavior.
 */

#include <cstdint>
#include <vector>

#include "ode/step_control.h"

namespace enode {

/** Accepted dt-schedule of one multi-layer solve. */
struct DtSchedule
{
    /** layers[l][k] = dt accepted at evaluation point k of layer l. */
    std::vector<std::vector<double>> layers;

    bool empty() const { return layers.empty(); }

    /** Drop contents, keep segment capacity (allocation-free reuse). */
    void clear() { layers.clear(); }
};

/**
 * StepController decorator: replays a cached dt-schedule as first-trial
 * proposals and records the accepted schedule of the solve it fronts.
 *
 * Lifecycle per request: beginSolve(schedule_or_null), then hand the
 * decorator to the solver as the controller. The solver's per-layer
 * reset() advances both the replay cursor and the recording segment.
 * After the solve, recorded() holds the accepted schedule (one segment
 * per layer solved) ready for cache insertion.
 */
class WarmStartController : public StepController
{
  public:
    /** @param inner Wrapped adaptive controller (not owned). */
    explicit WarmStartController(StepController *inner);

    /**
     * Arm for a new solve. Copies `replay` into an internal buffer
     * (reusing capacity) so the caller may drop its reference — cache
     * entries can be evicted mid-solve without dangling. Pass null for
     * a cold solve (record-only). Also clears the recording.
     */
    void beginSolve(const DtSchedule *replay);

    /**
     * Copy the accepted schedule recorded since beginSolve into `out`
     * (one segment per layer solved, reusing out's capacity). The
     * internal recording buffers persist across solves, so steady-state
     * recording itself never allocates once segment capacity has grown
     * to the workload's step counts.
     */
    void harvestRecorded(DtSchedule &out) const;

    /** Layers recorded (reset() calls) since beginSolve. */
    std::size_t recordedLayers() const { return usedSegments_; }

    /** Evaluation points whose first trial came from the replay. */
    std::uint32_t replayedPoints() const { return replayedPoints_; }

    /** True when a replayed first trial was rejected this solve. */
    bool replayRejected() const { return replayRejected_; }

    /** True when beginSolve was armed with a schedule. */
    bool armed() const { return armedReplay_; }

    // StepController interface -------------------------------------

    /** Layer boundary: next replay segment, new recording segment. */
    void reset(double initial_dt) override;
    double initialDt() override;
    double rejectedDt(double dt, double err_norm, double eps) override;
    void accepted(double dt, double err_norm, double eps,
                  bool first_trial_accepted) override;
    std::string name() const override
    {
        return "warm-start(" + inner_->name() + ")";
    }

  private:
    /** True when the next initialDt() should come from the replay. */
    bool replayHasNext() const;

    StepController *inner_;

    DtSchedule replay_;
    /** Recording segments; only the first usedSegments_ are live. The
     *  dead tail keeps its capacity for later solves. */
    std::vector<std::vector<double>> segments_;
    std::size_t usedSegments_ = 0;
    bool armedReplay_ = false;
    bool replayActive_ = false;
    /** True when the pending trial's dt came from the replay. */
    bool trialFromReplay_ = false;
    /** Current layer segment: -1 before the first reset(). */
    std::ptrdiff_t segment_ = -1;
    std::size_t pointIdx_ = 0;
    std::uint32_t replayedPoints_ = 0;
    bool replayRejected_ = false;
};

} // namespace enode

#endif // ENODE_ODE_WARM_START_H
