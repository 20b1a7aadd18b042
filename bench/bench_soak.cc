/**
 * @file
 * Open-loop chaos soak: admission control under sustained overload.
 *
 * The experiment the admission controller exists for. A seeded
 * open-loop generator (workloads/load_gen.h) offers bursty traffic at a
 * multiple of the measured sustainable rate — open loop, so the
 * arrival schedule never throttles to what the server can absorb and
 * genuine overload is reachable — while the fault injector corrupts a
 * slice of f-evaluations and a few requests carry a state the model
 * cannot take. Three runs:
 *
 *  1. Baseline: light Poisson traffic, no chaos. Establishes the
 *     unloaded p99 the overload criterion is stated against.
 *  2. Admission ON: bursty arrivals at `overload_factor` times the
 *     sustainable rate, chaos armed, admission + brownout enabled.
 *  3. Admission OFF: the identical schedule (same seed) against a
 *     server with no admission control — every request queues until it
 *     times out or is rejected by the bounded queue.
 *
 * Report (BENCH_soak.json): goodput (Ok responses inside their
 * deadline, per second), shed/invalid/expired/failed/rejected counts, p99
 * latency of admitted-and-served requests, and brownout-level
 * residency. The run *aborts non-zero* if any configuration violates
 * exact terminal reconciliation:
 *
 *     admitted == completed + expired + failed + cancelled + shed
 *                 + invalid
 *
 * and every wrong-shape request must come back InvalidInput.
 *
 * Acceptance lines printed at the end (checked in CI for the quick
 * profile): reconciliation holds, goodput under admission > 0, and —
 * informational on shared/1-core runners where timing is noisy —
 * p99-of-admitted within 1.5x unloaded p99 and goodput strictly above
 * the no-admission baseline.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iomanip>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/node_model.h"
#include "runtime/inference_server.h"
#include "workloads/load_gen.h"

using namespace enode;

namespace {

constexpr std::uint64_t kSeed = 20260808;
constexpr std::size_t kDim = 16;
/** Every kInvalidEvery-th arrival carries a state of the wrong shape. */
constexpr std::size_t kInvalidEvery = 64;

std::unique_ptr<NodeModel>
makeServedModel()
{
    Rng rng(kSeed);
    return NodeModel::makeMlp(/*num_layers=*/2, kDim, /*hidden=*/64,
                              /*f_depth=*/2, rng);
}

ServerOptions
baseOptions(std::size_t workers)
{
    ServerOptions opts;
    opts.numWorkers = workers;
    opts.queueCapacity = 4096;
    opts.ivp.tolerance = 1e-4;
    opts.ivp.initialDt = 0.05;
    return opts;
}

/**
 * Input synthesis from an arrival's flavor + per-request seed. The
 * stiff flavor scales the state up: larger magnitudes drive the MLP
 * into steeper regions, so the adaptive controller takes more (and
 * smaller) steps — a cheap proxy for expensive dynamics that keeps the
 * single served model (one input dim) while still giving the cost
 * model a spread of service times.
 */
Tensor
makeInput(const ArrivalEvent &ev)
{
    Rng rng(ev.inputSeed);
    return Tensor::randn(Shape{kDim}, rng, ev.stiff ? 2.0f : 0.5f);
}

/** A state the served model cannot take: one element too wide, or a
 *  rank-2 map, alternating. */
Tensor
makeInvalidInput(std::size_t index)
{
    return Tensor(index % 2 == 0 ? Shape{kDim + 1} : Shape{4, 4});
}

/** Sustainable closed-loop rate of one configuration, requests/sec. */
double
calibrateSustainableRps(std::size_t workers, double seconds)
{
    InferenceServer server(makeServedModel, baseOptions(workers));
    Rng rng(kSeed + 1);
    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < 32; i++)
        inputs.push_back(Tensor::randn(Shape{kDim}, rng, 0.5f));

    const auto start = RuntimeClock::now();
    const auto stop_at =
        start + std::chrono::duration_cast<RuntimeClock::duration>(
                    std::chrono::duration<double>(seconds));
    std::size_t done = 0;
    while (RuntimeClock::now() < stop_at) {
        auto sub = server.submit(inputs[done % inputs.size()]);
        if (sub.accepted) {
            sub.result.get();
            done++;
        }
    }
    const double elapsed =
        std::chrono::duration<double>(RuntimeClock::now() - start).count();
    server.stop();
    return static_cast<double>(done) / elapsed;
}

struct SoakResult
{
    std::string name;
    double offeredRps = 0.0;
    double durationSec = 0.0;
    double goodputRps = 0.0;   ///< Ok and inside deadline, per second
    double servedP99Ms = 0.0;  ///< p99 total latency of Ok responses
    std::uint64_t rejected = 0; ///< bounded-queue refusals (not admitted)
    std::uint64_t invalidSent = 0; ///< admitted wrong-shape requests
    MetricsSummary metrics;
    bool reconciled = false;
    /** Brownout residency, ms at levels 0..3 (admission runs only). */
    double residencyMs[4] = {0.0, 0.0, 0.0, 0.0};
    std::uint64_t relaxedSolves = 0;
};

/** Replay a schedule open-loop against one server configuration. */
SoakResult
runSoak(const std::string &name, const ServerOptions &opts,
        const std::vector<ArrivalEvent> &schedule, double durationSec,
        bool chaos)
{
    SoakResult result;
    result.name = name;
    result.durationSec = durationSec;
    result.offeredRps =
        static_cast<double>(schedule.size()) / durationSec;

    // Transient chaos while the soak runs: a slice of f-evaluations
    // corrupts to NaN in bursts. The ladder (retry, then fixed-step
    // fallback) should absorb most of it; what matters here is that
    // every outcome still lands in exactly one terminal counter.
    FaultPlan plan;
    plan.seed = kSeed + 77;
    if (chaos) {
        // Recurring 40-eval NaN bursts, one every ~20000 f-evals.
        for (std::uint64_t burst = 0; burst < 64; burst++) {
            FaultSpec spec;
            spec.site = "node.feval";
            spec.kind = FaultKind::CorruptNaN;
            spec.firstHit = 200 + burst * 20000;
            spec.count = 40;
            plan.faults.push_back(spec);
        }
    }
    ScopedFaultPlan scoped(plan);

    InferenceServer server(makeServedModel, opts);
    std::vector<std::future<InferResponse>> futures;
    futures.reserve(schedule.size());

    const auto start = RuntimeClock::now();
    for (std::size_t i = 0; i < schedule.size(); i++) {
        const ArrivalEvent &ev = schedule[i];
        const bool invalid = i % kInvalidEvery == kInvalidEvery - 1;
        const auto due =
            start + std::chrono::duration_cast<RuntimeClock::duration>(
                        std::chrono::duration<double, std::milli>(ev.atMs));
        std::this_thread::sleep_until(due);
        const auto deadline =
            RuntimeClock::now() +
            std::chrono::duration_cast<RuntimeClock::duration>(
                std::chrono::duration<double, std::milli>(
                    ev.deadlineBudgetMs));
        auto sub = server.submit(
            invalid ? makeInvalidInput(i / kInvalidEvery) : makeInput(ev),
            ev.stream, deadline);
        if (sub.accepted) {
            futures.push_back(std::move(sub.result));
            result.invalidSent += invalid ? 1 : 0;
        } else {
            result.rejected++;
        }
    }

    std::vector<double> served_ms;
    served_ms.reserve(futures.size());
    std::uint64_t good = 0;
    for (auto &f : futures) {
        InferResponse r = f.get();
        if (r.status == RequestStatus::Ok) {
            served_ms.push_back(r.totalMs);
            if (r.deadlineMet)
                good++;
        }
    }
    const double elapsed =
        std::chrono::duration<double>(RuntimeClock::now() - start).count();
    server.stop();

    result.metrics = server.metrics().summary();
    result.goodputRps = static_cast<double>(good) / elapsed;
    if (!served_ms.empty()) {
        std::sort(served_ms.begin(), served_ms.end());
        const std::size_t idx = static_cast<std::size_t>(
            0.99 * static_cast<double>(served_ms.size() - 1));
        result.servedP99Ms = served_ms[idx];
    }
    const MetricsSummary &m = result.metrics;
    result.reconciled = m.admitted == m.completed + m.expired + m.failed +
                                          m.cancelled + m.shed + m.invalid &&
                        m.invalid == result.invalidSent;
    if (const AdmissionController *adm = server.admission()) {
        for (int level = 0; level < 4; level++)
            result.residencyMs[level] = adm->levelResidencyMs(level);
        result.relaxedSolves = adm->relaxedSolves();
    }
    return result;
}

void
writeReport(const std::vector<SoakResult> &runs, double unloadedP99,
            const std::string &path = "BENCH_soak.json")
{
    std::ofstream out(path, std::ios::trunc);
    out << "{\n  \"unloaded_p99_ms\": " << std::fixed
        << std::setprecision(3) << unloadedP99 << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); i++) {
        const SoakResult &r = runs[i];
        const MetricsSummary &m = r.metrics;
        out << "    {\"name\": \"" << r.name << "\""
            << std::fixed << std::setprecision(2)
            << ", \"offered_rps\": " << r.offeredRps
            << ", \"goodput_rps\": " << r.goodputRps
            << ", \"served_p99_ms\": " << std::setprecision(3)
            << r.servedP99Ms
            << ", \"admitted\": " << m.admitted
            << ", \"completed\": " << m.completed
            << ", \"expired\": " << m.expired
            << ", \"failed\": " << m.failed
            << ", \"cancelled\": " << m.cancelled
            << ", \"shed\": " << m.shed
            << ", \"invalid\": " << m.invalid
            << ", \"rejected\": " << r.rejected
            << ", \"brownout_relaxed\": " << m.brownoutRelaxed
            << ", \"relaxed_solves\": " << r.relaxedSolves
            << ", \"residency_ms\": [" << std::setprecision(1)
            << r.residencyMs[0] << ", " << r.residencyMs[1] << ", "
            << r.residencyMs[2] << ", " << r.residencyMs[3] << "]"
            << ", \"reconciled\": " << (r.reconciled ? "true" : "false")
            << "}" << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);

    double soak_sec = 20.0;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--quick") == 0)
            soak_sec = 6.0;
        else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc)
            soak_sec = std::atof(argv[++i]);
    }

    const std::size_t workers = 2;
    const double overload_factor = 2.0;

    std::printf("calibrating sustainable rate (%zu workers)...\n", workers);
    const double sustainable =
        calibrateSustainableRps(workers, std::min(3.0, soak_sec / 2.0));
    std::printf("sustainable: %.1f req/s\n", sustainable);

    // Shared mix knobs. Deadlines sit well above the unloaded service
    // time, so under light load nearly everything meets them and under
    // overload queueing — not the budget itself — is what kills them.
    LoadGenOptions mix;
    mix.numStreams = 3;
    mix.deadlineMeanMs = 10.0;
    mix.deadlineJitter = 0.5;
    mix.stiffFraction = 0.2;

    // Run 1: unloaded baseline, light Poisson, no chaos.
    LoadGenOptions baseline_gen = mix;
    baseline_gen.process = ArrivalProcess::Poisson;
    baseline_gen.ratePerSec = std::max(1.0, 0.3 * sustainable);
    baseline_gen.seed = kSeed + 11;
    const auto baseline_schedule =
        LoadGen(baseline_gen).schedule(soak_sec * 0.5);
    const SoakResult baseline =
        runSoak("baseline", baseOptions(workers), baseline_schedule,
                soak_sec * 0.5, /*chaos=*/false);
    const double unloaded_p99 = baseline.servedP99Ms;

    // Runs 2 + 3: the identical bursty overload schedule, with and
    // without admission control.
    LoadGenOptions soak_gen = mix;
    soak_gen.process = ArrivalProcess::Bursty;
    soak_gen.ratePerSec =
        std::max(2.0, overload_factor * sustainable / soak_gen.burstFactor);
    soak_gen.seed = kSeed + 13;
    const auto soak_schedule = LoadGen(soak_gen).schedule(soak_sec);

    ServerOptions admit_opts = baseOptions(workers);
    admit_opts.overload.enabled = true;
    admit_opts.overload.targetDelayMs = 15.0;
    admit_opts.overload.minDwellMs = 50.0;
    admit_opts.overload.ewmaAlpha = 0.3;
    admit_opts.overload.lowPriorityMax = 0; // stream 0 is sacrificial
    const SoakResult admitted =
        runSoak("admission_on", admit_opts, soak_schedule, soak_sec,
                /*chaos=*/true);

    const SoakResult unguarded =
        runSoak("admission_off", baseOptions(workers), soak_schedule,
                soak_sec, /*chaos=*/true);

    const std::vector<SoakResult> runs = {baseline, admitted, unguarded};

    Table table("Open-loop soak (" + std::to_string(soak_sec) +
                "s, ~" + std::to_string(static_cast<int>(overload_factor)) +
                "x sustainable, bursty, chaos on)");
    table.setHeader({"run", "offered r/s", "goodput r/s", "p99 ms",
                     "shed", "invalid", "expired", "failed", "rejected"});
    for (const SoakResult &r : runs)
        table.addRow({r.name, Table::num(r.offeredRps, 1),
                      Table::num(r.goodputRps, 1),
                      Table::num(r.servedP99Ms),
                      std::to_string(r.metrics.shed),
                      std::to_string(r.metrics.invalid),
                      std::to_string(r.metrics.expired),
                      std::to_string(r.metrics.failed),
                      std::to_string(r.rejected)});
    table.print();

    std::printf("brownout residency (admission_on, ms): "
                "l0=%.0f l1=%.0f l2=%.0f l3=%.0f, relaxed solves=%llu\n",
                admitted.residencyMs[0], admitted.residencyMs[1],
                admitted.residencyMs[2], admitted.residencyMs[3],
                static_cast<unsigned long long>(admitted.relaxedSolves));

    writeReport(runs, unloaded_p99);
    std::printf("wrote BENCH_soak.json\n");

    // Hard gates: exact terminal reconciliation in every configuration
    // and non-zero goodput under admission control.
    bool ok = true;
    for (const SoakResult &r : runs) {
        std::printf("%s: reconciliation %s\n", r.name.c_str(),
                    r.reconciled ? "PASS" : "FAIL");
        ok = ok && r.reconciled;
    }
    const bool goodput_ok = admitted.goodputRps > 0.0;
    std::printf("admission_on goodput > 0: %s\n",
                goodput_ok ? "PASS" : "FAIL");
    ok = ok && goodput_ok;

    // Informational on noisy runners, the paper criterion on quiet
    // ones: p99-of-admitted within 1.5x unloaded and goodput strictly
    // above the unguarded baseline.
    if (unloaded_p99 > 0.0)
        std::printf("p99 containment (%.1f <= 1.5 * %.1f): %s\n",
                    admitted.servedP99Ms, unloaded_p99,
                    admitted.servedP99Ms <= 1.5 * unloaded_p99
                        ? "PASS"
                        : "FAIL (informational)");
    std::printf("goodput vs no-admission (%.1f > %.1f): %s\n",
                admitted.goodputRps, unguarded.goodputRps,
                admitted.goodputRps > unguarded.goodputRps
                    ? "PASS"
                    : "FAIL (informational)");

    return ok ? 0 : 1;
}
