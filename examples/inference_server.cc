/**
 * @file
 * Edge-inference serving demo with full observability.
 *
 * Spins up the concurrent serving runtime over a small MLP NODE, plays
 * two traffic classes against it — a background telemetry stream
 * (stream 0, relaxed deadlines) and an interactive control stream
 * (stream 2, tight deadlines) — and prints the per-class experience
 * plus the runtime's latency-percentile metrics. The scheduler is the
 * same later-stream-first policy the eNODE hardware's priority selector
 * uses for integrator streams (Sec. V.B), applied at request
 * granularity.
 *
 * With `--trace <file>` the demo also records a span trace across
 * three phases — the priority burst, a deliberately degraded burst
 * (every solve climbs the retry/fallback ladder), and a packetized
 * pipeline step — and writes Chrome trace-event JSON you can load
 * directly in chrome://tracing or https://ui.perfetto.dev.
 *
 * With `--soak` a fourth phase floods a single-worker server past its
 * defended queue delay so the admission controller's brownout ladder
 * engages — overload.enter/exit instants, shed requests, and relaxed
 * low-priority solves all land in the exported trace.
 *
 * Build & run:
 *   ./build/examples/example_inference_server --trace trace.json --soak
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/task_pool.h"
#include "common/trace_span.h"
#include "core/depth_first.h"
#include "runtime/inference_server.h"

using namespace enode;

namespace {

/** Phase 1: the two-class priority burst against a healthy server. */
MetricsSummary
runPriorityDemo(std::string &exposition)
{
    auto factory = [] {
        Rng rng(99);
        return NodeModel::makeMlp(/*num_layers=*/2, /*dim=*/8,
                                  /*hidden=*/32, /*f_depth=*/1, rng);
    };

    ServerOptions options;
    options.numWorkers = 4;
    options.queueCapacity = 64;
    options.ivp.tolerance = 1e-4;
    options.ivp.initialDt = 0.05;
    options.publishPeriodMs = 2.0; // background gauge sampling

    InferenceServer server(factory, options);
    std::printf("serving with %zu workers, queue capacity %zu, policy "
                "%s\n\n",
                server.numWorkers(), server.queue().capacity(),
                selectPolicyName(server.queue().policy()));

    Rng rng(7);
    struct Pending
    {
        const char *klass;
        std::future<InferResponse> result;
    };
    std::vector<Pending> pending;

    const auto now = RuntimeClock::now();
    for (int burst = 0; burst < 20; burst++) {
        // Telemetry: plentiful, deadline-relaxed, stream 0.
        for (int i = 0; i < 3; i++) {
            auto sub = server.submit(Tensor::randn(Shape{8}, rng, 0.5f),
                                     /*stream=*/0,
                                     now + std::chrono::seconds(5));
            if (sub.accepted)
                pending.push_back({"telemetry", std::move(sub.result)});
        }
        // Control: sparse, tight deadline, stream 2 — scheduled first.
        auto sub = server.submit(Tensor::randn(Shape{8}, rng, 0.5f),
                                 /*stream=*/2,
                                 now + std::chrono::milliseconds(250));
        if (sub.accepted)
            pending.push_back({"control", std::move(sub.result)});
    }

    double control_wait = 0.0, telemetry_wait = 0.0;
    int control_n = 0, telemetry_n = 0, misses = 0;
    for (auto &p : pending) {
        InferResponse r = p.result.get();
        if (r.status != RequestStatus::Ok)
            continue;
        if (p.klass[0] == 'c') {
            control_wait += r.queueWaitMs;
            control_n++;
        } else {
            telemetry_wait += r.queueWaitMs;
            telemetry_n++;
        }
        misses += !r.deadlineMet;
    }
    server.stop();

    std::printf("served %d control + %d telemetry requests, %d deadline "
                "misses\n",
                control_n, telemetry_n, misses);
    if (control_n && telemetry_n)
        std::printf("mean queue wait: control %.3f ms vs telemetry %.3f "
                    "ms (priority favours control)\n\n",
                    control_wait / control_n,
                    telemetry_wait / telemetry_n);

    exposition = server.metricsText();
    return server.metrics().summary();
}

/**
 * Phase 2: a burst nothing can solve at the configured tolerance, so
 * every request climbs the degradation ladder (relaxed retry, then
 * fixed-step fallback) — the trace shows request.retry and
 * request.fallback rungs under each request.serve span.
 */
void
runDegradedBurst()
{
    auto factory = [] {
        Rng rng(99);
        return NodeModel::makeMlp(/*num_layers=*/2, /*dim=*/8,
                                  /*hidden=*/32, /*f_depth=*/1, rng);
    };
    ServerOptions options;
    options.numWorkers = 1;
    options.queueCapacity = 16;
    options.ivp.tolerance = 1e-30; // unsatisfiable: forces the ladder
    options.ivp.initialDt = 0.05;
    options.ivp.minDt = 0.04; // one halving lands under the floor

    setLogLevel(LogLevel::Silent); // forced-accept warnings expected
    InferenceServer server(factory, options);
    Rng rng(17);
    std::vector<std::future<InferResponse>> results;
    for (int i = 0; i < 4; i++) {
        auto sub = server.submit(Tensor::randn(Shape{8}, rng, 0.5f));
        if (sub.accepted)
            results.push_back(std::move(sub.result));
    }
    int degraded = 0, retried = 0;
    for (auto &future : results) {
        InferResponse r = future.get();
        degraded += r.status == RequestStatus::Ok && r.degraded;
        retried += r.retries;
    }
    server.stop();
    setLogLevel(LogLevel::Warn);
    std::printf("degraded burst: %d/%zu recovered by the ladder "
                "(%d relaxed retries)\n",
                degraded, results.size(), retried);
}

/** Phase 3: one packetized pipeline step for pipeline.wave spans. */
void
runPipelineDemo()
{
    Rng rng(31);
    auto net = EmbeddedNet::makeStreamableConvNet(/*channels=*/4,
                                                  /*depth=*/2, rng);
    Tensor h = Tensor::randn(Shape{4, 16, 12}, rng, 0.5f);
    TaskPool pool(3);
    PipelineOptions opts;
    opts.pool = &pool;
    StreamingExecutor exec(*net, ButcherTableau::rk23());
    auto step = exec.runPipelined(0.0, h, 0.1, opts);
    std::printf("pipeline step: %llu waves, %llu packets over %llu rows "
                "(ring occupancy %.2f)\n",
                static_cast<unsigned long long>(step.pipelineWaves),
                static_cast<unsigned long long>(step.pipelinePackets),
                static_cast<unsigned long long>(step.totalRowsComputed),
                step.pipelineOccupancy);
}

/**
 * Phase 4 (`--soak`): overload and recovery under admission control.
 *
 * A staged flood against a paused single-worker server ages a backlog
 * past the defended queue delay, so the brownout monitor climbs the
 * ladder the moment the workers release — overload.enter lands in the
 * trace, low-priority solves run relaxed, and estimate-based shedding
 * turns away what cannot meet its deadline. A sparse healthy tail then
 * walks the ladder back down (overload.exit).
 */
void
runSoakDemo()
{
    auto factory = [] {
        Rng rng(99);
        return NodeModel::makeMlp(/*num_layers=*/2, /*dim=*/8,
                                  /*hidden=*/32, /*f_depth=*/1, rng);
    };

    ServerOptions options;
    options.numWorkers = 1;
    options.queueCapacity = 256;
    options.ivp.tolerance = 1e-4;
    options.ivp.initialDt = 0.05;
    options.startPaused = true;
    options.overload.enabled = true;
    options.overload.targetDelayMs = 0.5; // defend an aggressive SLO
    options.overload.minDwellMs = 0.0;
    options.overload.ewmaAlpha = 0.5;

    InferenceServer server(factory, options);
    std::printf("phase 4: staged flood against admission control "
                "(defended queue delay %.1f ms)\n",
                options.overload.targetDelayMs);

    Rng rng(17);
    std::vector<std::future<InferResponse>> floods;
    for (int i = 0; i < 48; i++) {
        auto sub = server.submit(
            Tensor::randn(Shape{8}, rng, 0.5f), /*stream=*/0,
            RuntimeClock::now() + std::chrono::milliseconds(200));
        if (sub.accepted)
            floods.push_back(std::move(sub.result));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.resume();
    int ok = 0, shed = 0, expired = 0;
    for (auto &f : floods) {
        const InferResponse r = f.get();
        ok += r.status == RequestStatus::Ok;
        shed += r.status == RequestStatus::Shed;
        expired += r.status == RequestStatus::DeadlineExceeded;
    }

    // Sparse healthy tail: idle-queue observations walk the ladder back
    // to level 0 before shutdown.
    const AdmissionController *adm = server.admission();
    for (int i = 0; i < 64 && adm != nullptr && adm->level() > 0; i++) {
        auto sub = server.submit(Tensor::randn(Shape{8}, rng, 0.5f),
                                 /*stream=*/2);
        if (sub.accepted)
            sub.result.get();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    server.stop();

    if (adm != nullptr)
        std::printf("flood: %d ok, %d shed, %d expired; brownout "
                    "transitions %llu, relaxed solves %llu, final level "
                    "%d\n\n",
                    ok, shed, expired,
                    static_cast<unsigned long long>(adm->transitions()),
                    static_cast<unsigned long long>(adm->relaxedSolves()),
                    adm->level());
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);

    const char *trace_path = nullptr;
    bool soak_mode = false;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
            trace_path = argv[++i];
        else if (std::strcmp(argv[i], "--soak") == 0)
            soak_mode = true;
    }

    // One arming spans every phase, so the exported trace shows the
    // healthy burst, the degraded burst, the pipeline step, and (with
    // --soak) the overload flood on one timeline. (A server with ServerOptions::traceEnabled arms
    // and disarms the tracer itself — handy when it is the only traced
    // component, but re-arming would discard earlier phases here.)
    if (trace_path != nullptr) {
        Tracer::instance().arm(std::size_t{1} << 14);
        Tracer::instance().setThreadName("main");
    }

    std::string exposition;
    const MetricsSummary s = runPriorityDemo(exposition);
    runDegradedBurst();
    runPipelineDemo();
    if (soak_mode)
        runSoakDemo();

    Table table("Serving metrics");
    table.setHeader({"metric", "value"});
    table.addRow({"requests completed",
                  Table::integer(static_cast<long long>(s.completed))});
    table.addRow({"requests rejected",
                  Table::integer(static_cast<long long>(s.rejected))});
    table.addRow({"latency p50 (ms)", Table::num(s.totalP50Ms)});
    table.addRow({"latency p95 (ms)", Table::num(s.totalP95Ms)});
    table.addRow({"latency p99 (ms)", Table::num(s.totalP99Ms)});
    table.addRow({"queue wait p95 (ms)", Table::num(s.queueWaitP95Ms)});
    table.addRow({"mean f-evals / request", Table::num(s.meanFEvals, 1)});
    table.print();

    std::printf("\nPrometheus exposition (healthy-burst server):\n%s",
                exposition.c_str());

    if (trace_path != nullptr) {
        Tracer &tracer = Tracer::instance();
        tracer.disarm();
        std::ofstream out(trace_path);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n", trace_path);
            return 1;
        }
        tracer.exportChromeTrace(out);
        std::printf("\nwrote %zu trace events from %zu threads to %s "
                    "(%llu dropped)\n"
                    "load it in chrome://tracing or "
                    "https://ui.perfetto.dev\n",
                    tracer.snapshot().size(), tracer.threadCount(),
                    trace_path,
                    static_cast<unsigned long long>(tracer.dropped()));
    }
    return 0;
}
