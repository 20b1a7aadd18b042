#include "ode/batched_ivp.h"

#include <algorithm>
#include <cstdint>

#include "common/logging.h"
#include "common/trace_span.h"

namespace enode {

BatchedIvpResult
solveIvpBatched(BatchedOdeFunction &f, const std::vector<const Tensor *> &y0,
                double t0, double t1, const ButcherTableau &tableau,
                const std::vector<StepController *> &controllers,
                const IvpOptions &opts, BatchedIvpWorkspace *workspace,
                const std::vector<SolveGuard *> *guards)
{
    ENODE_ASSERT(t1 > t0, "solveIvpBatched needs t1 > t0");
    ENODE_ASSERT(opts.tolerance > 0.0 && opts.initialDt > 0.0,
                 "bad IvpOptions");
    const std::size_t n = y0.size();
    ENODE_ASSERT(controllers.size() == n, "one controller per sample");
    ENODE_ASSERT(guards == nullptr || guards->size() == n,
                 "guards sized like the batch when present");

    BatchedIvpResult result;
    result.yFinal.resize(n);
    result.stats.resize(n);
    result.status.assign(n, SolveStatus::Ok);
    if (n == 0)
        return result;

    const Shape state_shape = y0[0]->shape();
    for (std::size_t i = 0; i < n; i++) {
        ENODE_ASSERT(y0[i] != nullptr && controllers[i] != nullptr,
                     "null sample ", i);
        ENODE_ASSERT(y0[i]->shape() == state_shape,
                     "batch mixes state shapes: ", y0[i]->shape().str(),
                     " vs ", state_shape.str());
    }

    // Same span names as the solo driver, so a trace reads the same at
    // any batch size; `batch` tells the two apart.
    TraceSpan solve_span("solve.ivp", "solver");
    solve_span.arg("batch", static_cast<double>(n));

    const RkStepper stepper(tableau);
    const std::size_t s = tableau.stages();
    const auto &c = tableau.c();
    const std::size_t state_numel = state_shape.numel();

    BatchedIvpWorkspace local_ws;
    BatchedIvpWorkspace &ws = workspace ? *workspace : local_ws;
    if (ws.slots.size() < n)
        ws.slots.resize(n);
    ws.active.clear();
    for (std::size_t i = 0; i < n; i++) {
        BatchedIvpWorkspace::Slot &slot = ws.slots[i];
        slot.y.copyFrom(*y0[i]);
        slot.stages.resize(s);
        slot.search = StepSearch(t0, t1, *controllers[i], tableau, opts);
        if (slot.search.nextPoint(result.stats[i], result.status[i]))
            ws.active.push_back(i);
    }

    // Lockstep rounds: each runs one trial of every active sample.
    while (!ws.active.empty()) {
        // One span per lockstep round (the batched counterpart of the
        // solo per-trial span).
        TraceSpan trial_span("solve.trial", "solver");
        trial_span.arg("batch", static_cast<double>(ws.active.size()));

        // Stages: per-sample stage inputs from the stepper, their f
        // evaluations gathered into one batched call per stage.
        for (std::size_t j = 0; j < s; j++) {
            ws.evaluated.clear();
            for (std::size_t i : ws.active) {
                BatchedIvpWorkspace::Slot &slot = ws.slots[i];
                if (j == 0 && slot.search.fsalValid()) {
                    slot.stages[0].copyFrom(slot.fsal); // no evaluation
                    continue;
                }
                stepper.stageInput(j, slot.y, slot.search.dt(), slot.stages,
                                   slot.stageInput);
                ws.evaluated.push_back(i);
            }
            if (ws.evaluated.empty())
                continue;

            // Gather -> one shared evaluation -> scatter.
            const std::size_t m = ws.evaluated.size();
            ws.packedIn.resize(state_shape.prepended(m));
            ws.packedTimes.resize(m);
            for (std::size_t idx = 0; idx < m; idx++) {
                const BatchedIvpWorkspace::Slot &slot =
                    ws.slots[ws.evaluated[idx]];
                std::copy(slot.stageInput.data(),
                          slot.stageInput.data() + state_numel,
                          ws.packedIn.data() + idx * state_numel);
                ws.packedTimes[idx] =
                    slot.search.t() + c[j] * slot.search.dt();
            }
            f.evalInto(ws.packedTimes, ws.packedIn, ws.packedOut);
            ENODE_ASSERT(ws.packedOut.numel() == m * state_numel,
                         "batched f output numel mismatch");
            for (std::size_t idx = 0; idx < m; idx++) {
                const std::size_t i = ws.evaluated[idx];
                Tensor &kj = ws.slots[i].stages[j];
                kj.resize(state_shape);
                const float *src = ws.packedOut.data() + idx * state_numel;
                std::copy(src, src + state_numel, kj.data());
                result.stats[i].fEvals++;
            }
        }

        // Verdicts: each sample's search rules on its trial. A sample
        // that reached t1 or failed leaves the active set, which is
        // compacted in place, in sample order.
        std::size_t kept = 0;
        for (std::size_t i : ws.active) {
            BatchedIvpWorkspace::Slot &slot = ws.slots[i];
            StepSearch &search = slot.search;
            IvpStats &stats = result.stats[i];
            const double err_norm = stepper.combine(
                slot.y, search.dt(), slot.stages, slot.yNext,
                slot.errorState);
            const bool within = StepSearch::withinTolerance(
                tableau, err_norm, opts.tolerance);
            if (search.judge(within, err_norm, 1.0, stats)) {
                SolveStatus &status = result.status[i];
                status = search.accept(slot.y, slot.yNext, slot.stages,
                                       slot.fsal, stats,
                                       guards ? (*guards)[i] : nullptr);
                if (!search.nextPoint(stats, status))
                    continue;
            }
            ws.active[kept++] = i;
        }
        ws.active.resize(kept);
    }

    std::uint64_t total_eval_points = 0, total_f_evals = 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < n; i++) {
        result.status[i] =
            ws.slots[i].search.finish(result.status[i], result.stats[i]);
        result.yFinal[i] = std::move(ws.slots[i].y);
        total_eval_points += result.stats[i].evalPoints;
        total_f_evals += result.stats[i].fEvals;
        if (result.status[i] != SolveStatus::Ok)
            failed++;
    }
    solve_span.arg("eval_points", static_cast<double>(total_eval_points));
    solve_span.arg("f_evals", static_cast<double>(total_f_evals));
    solve_span.arg("failed_samples", static_cast<double>(failed));
    return result;
}

} // namespace enode
