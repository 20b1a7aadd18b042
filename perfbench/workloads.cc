#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/task_pool.h"
#include "common/trace_span.h"
#include "core/aca_trainer.h"
#include "core/slope_adaptive.h"
#include "harness.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "runtime/inference_server.h"
#include "runtime/training_service.h"
#include "tensor/hash.h"

namespace perfbench {

namespace {

using namespace enode;

/** Weights are fixed; only inputs and schedules follow --seed. */
constexpr std::uint64_t kWeightSeed = 20230815;
constexpr std::size_t kMlpDim = 16;
/** Seconds of traffic before any phase is measured: the first second
 *  of a process runs slow on shared hosts, and caches must fill. */
constexpr double kWarmupSec = 2.0;
/** Untimed traffic after arming the tracer, before the traced phase. */
constexpr double kPreRollSec = 0.5;
/** The traced phase lasts at most this long, so that kTraceRing holds
 *  every span of the busiest thread (~20k spans/s). */
constexpr double kTracedMaxSec = 6.0;
/** Set-ups per run, timed after the measured phases while the process is
 *  warm (after kSetupWarmups untimed ones) and spaced kSetupGapMs apart so
 *  that one slow moment of a shared host cannot move their median;
 *  setup_s is that median. */
constexpr int kSetupWarmups = 3;
constexpr int kSetupReps = 21;
constexpr int kSetupGapMs = 40;
/** Latency percentiles and closed-loop rates are taken per window of due
 *  time: the median latency and the rate per window of kMedianWindowSec,
 *  a tail per window of at least kTailWindowSec. */
constexpr double kMedianWindowSec = 1.0;
constexpr double kTailWindowSec = 2.5;
/** latency_p50_ms is this quantile over the windows, a closed-loop rate
 *  the complementary one. On the 4-vCPU reference VM, compute ran ~45%
 *  slower for seconds at a time (image-conv window medians of 17 ms and
 *  25-27 ms in one run); such stretches lift the windows they cover, and
 *  the lower quartile moves only once they cover three quarters of the
 *  run. Over 4 runs its range was 0.05 of its median, against 0.09 for
 *  the median over windows. Tails keep the median over windows. */
constexpr double kCalmQuantile = 0.25;
/** Planned samples of the lowest stream per window: a p99 with at least
 *  ten samples beyond it needs 1000. */
constexpr double kTailSamples = 1000.0;
/** A run whose generator submitted later than this (p99) is flagged. */
constexpr double kLagLimitMs = 1.0;
/** Per-thread trace ring for the traced phase (events). */
constexpr std::size_t kTraceRing = std::size_t{1} << 18;
/** Responses checked per phase: an evenly strided sample, plus on the
 *  MLP workloads up to kMaxChecks more plain solves (on sensor-mlp most
 *  responses are cache hits or warm-started, so the stride alone finds
 *  few). Conv reference solves cost ~20 ms each, so fewer of them. */
constexpr std::size_t kMaxChecks = 256;
constexpr std::size_t kMaxConvChecks = 64;
/** Warm-started / relaxed outputs may differ from a cold solve by this
 *  many tolerances per accepted step of the two solves together. */
constexpr double kBoundPerStep = 1.0;
/** sensor-mlp traffic: sensors, and the share of byte-exact repeats. */
constexpr std::size_t kSensors = 64;
constexpr double kRepeatShare = 0.25;
/** Weight of the newest observation in the admission cost model and
 *  the brownout monitor on sensor-mlp. At the library default (0.25) one
 *  stall of the host long enough to empty the pool (~50 ms) made the
 *  next completion gap dominate the drain estimate, and with the backlog
 *  of the stall it shed requests of a workload far below saturation.
 *  With 0.02 and 5 s deadlines, 300 ms stalls of the whole process shed
 *  nothing; sustained overload still does. */
constexpr double kOverloadEwmaAlpha = 0.02;
/** Intra-op width of the task-pool probe. image-conv serves serially:
 *  on a VM whose vCPUs the host sometimes deschedules, width 3 made its
 *  latency up to 4x worse in such periods (82-86 ms against 29-31 ms
 *  serial; the two were even in calm periods). */
constexpr std::size_t kIntraOpWidth = 3;

/** The fixed parameters of one workload (all stamped on its result). */
struct Spec
{
    const char *name;
    bool conv;               ///< conv NODE on 6x12x12, else MLP dim 16
    std::size_t workers;
    std::size_t maxBatch;
    std::size_t intraOp;
    bool cache;
    bool overload;
    double ratePerSec;       ///< open-loop rate; 0 = closed loop
    std::uint32_t numStreams;
    std::uint32_t firstStream; ///< lowest-priority inference stream
    double deadlineMs;       ///< mean budget from due; 0 = none
    bool training;
    double tolerance;
    double initialDt;
};

/** train-mix serves and trains on one worker, so nearly every request
 *  waits out the rest of the running training task and then solves.
 *  With 2 workers (300 req/s) solves ran beside a training task on
 *  another vCPU, and on the reference VM latency_p50_ms spread 0.21-0.29
 *  (interquartile range over median, 4-5 seeds); with one worker,
 *  0.02-0.26 over 5-10 seeds, in hours when image-conv's was 0.05-0.22. */
const Spec kSpecs[] = {
    {"sensor-mlp", false, 3, 8, 1, true, true, 2000.0, 4, 0, 5000.0, false,
     1e-4, 0.05},
    {"image-conv", true, 1, 1, 1, false, false, 0.0, 1, 0, 0.0,
     false, 3e-3, 0.05},
    {"train-mix", false, 1, 1, 1, false, false, 300.0, 3, 1, 5000.0, true,
     1e-4, 0.05},
};

Shape
stateShape(const Spec &spec)
{
    return spec.conv ? Shape{6, 12, 12} : Shape{kMlpDim};
}

std::unique_ptr<NodeModel>
makeModel(const Spec &spec)
{
    Rng rng(kWeightSeed);
    if (spec.conv)
        return NodeModel::makeConv(/*num_layers=*/2, /*channels=*/6,
                                   /*f_depth=*/2, rng);
    return NodeModel::makeMlp(/*num_layers=*/2, kMlpDim, /*hidden=*/64,
                              /*f_depth=*/2, rng);
}

std::unique_ptr<StepController>
makeController()
{
    return std::make_unique<SlopeAdaptiveController>();
}

IvpOptions
ivpOptions(const Spec &spec)
{
    IvpOptions opts = servingIvpDefaults();
    opts.tolerance = spec.tolerance;
    opts.initialDt = spec.initialDt;
    return opts;
}

ServerOptions
serverOptions(const Spec &spec)
{
    ServerOptions opts;
    opts.numWorkers = spec.workers;
    opts.queueCapacity = 4096;
    opts.ivp = ivpOptions(spec);
    opts.intraOpThreads = spec.intraOp;
    opts.maxBatch = spec.maxBatch;
    opts.cache.enabled = spec.cache;
    opts.overload.enabled = spec.overload;
    opts.overload.ewmaAlpha = kOverloadEwmaAlpha;
    return opts;
}

TrainingOptions
trainingOptions(const Spec &spec)
{
    TrainingOptions opts;
    // The weights barely move over a run, so inference cost stays
    // stationary; every step still runs the full forward, ACA backward,
    // reduction, publication and replica swap. Between steps the worker
    // idles while the trainer thread reduces and publishes, for as long
    // as the host takes to wake that thread; 8 tasks per step make that
    // gap one per 8 tasks instead of one per task.
    opts.learningRate = 1e-6;
    opts.batchSize = 8;
    opts.publishEvery = 1;
    opts.ivp = ivpOptions(spec);
    opts.ivp.tolerance = 1e-3;
    opts.ivp.recordCheckpoints = true;
    return opts;
}

Tensor
randomState(const Spec &spec, std::uint64_t seed)
{
    Rng rng(seed);
    return Tensor::randn(stateShape(spec), rng, 0.5f);
}

/** The train-mix regression stream: example i of a seed. */
TrainExample
trainExample(std::uint64_t seed, std::uint64_t index)
{
    Rng rng(mix64(seed ^ mix64(index + 1)));
    TrainExample ex;
    ex.input = Tensor::randn(Shape{kMlpDim}, rng, 0.5f);
    ex.target = ex.input * 0.5f;
    return ex;
}

Hash128
paramsDigest(NodeModel &model)
{
    StreamHasher hasher;
    for (const ParamSlot &slot : model.paramSlots())
        hashTensorInto(hasher, *slot.param);
    return hasher.digest();
}

/**
 * A fixed population of sensors, each reporting around its own base
 * state. A reading is either a byte-exact repeat of the sensor's last
 * one (exact-cache traffic) or a small mean-reverting drift from it
 * (warm-start traffic: same coarse signature, new bytes).
 */
class SensorPopulation
{
  public:
    explicit SensorPopulation(std::uint64_t seed) : rng_(seed)
    {
        for (std::size_t s = 0; s < kSensors; s++)
            base_.push_back(Tensor::randn(Shape{kMlpDim}, rng_, 0.5f));
        last_ = base_;
    }

    Tensor
    next()
    {
        const std::size_t s = rng_.nextBelow(kSensors);
        if (rng_.uniform() < kRepeatShare)
            return last_[s];
        Tensor &x = last_[s];
        for (std::size_t i = 0; i < x.numel(); i++)
            x.at(i) += 0.1f * (base_[s].at(i) - x.at(i)) +
                       0.02f * static_cast<float>(rng_.normal());
        return x;
    }

  private:
    Rng rng_;
    std::vector<Tensor> base_;
    std::vector<Tensor> last_;
};

/** One attempted request of a measured phase. */
struct Record
{
    std::size_t input = 0; ///< index into Phase::inputs
    double atMs = 0.0;     ///< due time, from the phase start
    std::uint32_t stream = 0;
    bool accepted = false;
    bool wrong = false; ///< failed an output check
    double lagMs = 0.0;
    double latencyMs = 0.0;
    double submitUs = 0.0;
    InferResponse response;
};

/** Server-side counters, read before and after a phase. */
struct Counters
{
    MetricsSummary metrics;
    std::uint64_t singleFlightWaits = 0;
    std::uint64_t swaps = 0;
    std::uint64_t trainSteps = 0;
    double taskRetries = 0.0;
    double taskFailures = 0.0;
    double residencyMs[4] = {0.0, 0.0, 0.0, 0.0};
};

/** One measured stretch of traffic. */
struct Phase
{
    std::vector<Tensor> inputs;
    std::vector<Record> records;
    double plannedSec = 0.0; ///< traffic duration asked for
    double seconds = 0.0;    ///< wall time from the phase start to drained
    Counters before;
    Counters after;
};

std::chrono::steady_clock::duration
msDuration(double ms)
{
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
}

/** Outputs of every solved (not cache-hit) response, by input digest.
 *  Every cached value comes from one of these solves. */
using SolvedIndex = std::unordered_map<std::uint64_t, std::vector<Tensor>>;

/** A server (plus trainer) built up to its first accepted request. */
struct Deployment
{
    std::unique_ptr<InferenceServer> server;
    std::unique_ptr<TrainingService> trainer;
    double seconds = 0.0; ///< model build .. first accepted request
};

Deployment
deploy(const Spec &spec, std::uint64_t seed)
{
    Deployment d;
    Tensor first = randomState(spec, seed);
    const auto t0 = Clock::now();
    d.server = std::make_unique<InferenceServer>(
        [spec] { return makeModel(spec); }, serverOptions(spec),
        makeController);
    if (spec.training)
        d.trainer = std::make_unique<TrainingService>(
            *d.server, makeModel(spec), trainingOptions(spec));
    auto sub = d.server->submit(std::move(first), spec.firstStream);
    d.seconds = msBetween(t0, Clock::now()) * 1e-3;
    ENODE_ASSERT(sub.accepted, "set-up request refused");
    sub.result.get();
    return d;
}

/** Median set-up time of kSetupReps fresh deployments, in seconds. */
double
setupSeconds(const Spec &spec, std::uint64_t seed)
{
    std::vector<double> seconds;
    for (int rep = 0; rep < kSetupWarmups + kSetupReps; rep++) {
        const double s = deploy(spec, mix64(seed + rep)).seconds;
        if (rep >= kSetupWarmups)
            seconds.push_back(s);
        std::this_thread::sleep_for(std::chrono::milliseconds(kSetupGapMs));
    }
    return median(seconds);
}

/** A live server (plus trainer) running one workload's traffic. */
class Bench
{
  public:
    Bench(const Spec &spec, std::uint64_t seed)
        : spec_(spec), seed_(seed), live_(deploy(spec, mix64(seed)))
    {
        // The cached workload is the one with sensor traffic to cache.
        if (spec_.cache)
            sensors_.emplace(mix64(seed_ ^ 0x5e05e05eull));
    }

    void
    startTraining()
    {
        if (live_.trainer)
            live_.trainer->start([seed = seed_](std::uint64_t i) {
                return trainExample(seed, i);
            });
    }

    void
    stopTraining()
    {
        if (live_.trainer)
            live_.trainer->stop();
    }

    Phase
    runPhase(double seconds)
    {
        const std::uint64_t phase_seed = mix64(seed_ + 0x9e37 * ++phases_);
        Phase p = spec_.ratePerSec > 0.0 ? openLoop(seconds, phase_seed)
                                         : closedLoop(seconds, phase_seed);
        if (spec_.cache)
            for (const Record &rec : p.records)
                if (rec.accepted && rec.response.status == RequestStatus::Ok &&
                    !rec.response.cacheHit)
                    solved_[hashTensor(p.inputs[rec.input]).lo].push_back(
                        rec.response.output);
        return p;
    }

    const SolvedIndex &solved() const { return solved_; }

    InferenceServer &server() { return *live_.server; }
    TrainingService *trainer() { return live_.trainer.get(); }

  private:
    Counters
    counters() const
    {
        Counters c;
        c.metrics = live_.server->metrics().summary();
        if (const SolveCache *cache = live_.server->solveCache())
            c.singleFlightWaits = cache->singleFlightWaits();
        if (const AdmissionController *adm = live_.server->admission())
            for (int level = 0; level < 4; level++)
                c.residencyMs[level] = adm->levelResidencyMs(level);
        c.swaps = live_.server->registry().swapsApplied();
        if (live_.trainer) {
            const StatGroup stats = live_.trainer->snapshotStats();
            c.trainSteps = live_.trainer->steps();
            c.taskRetries = stats.get("train.task_retries");
            c.taskFailures = stats.get("train.task_failures");
        }
        return c;
    }

    /** Precomputed Poisson schedule, submitted on time by this thread
     *  whatever is still in flight; responses collected afterwards. */
    Phase
    openLoop(double seconds, std::uint64_t phase_seed)
    {
        Phase p;
        p.plannedSec = seconds;
        const std::vector<Arrival> schedule = poissonSchedule(
            spec_.ratePerSec, seconds, spec_.numStreams, spec_.firstStream,
            spec_.deadlineMs, phase_seed);
        const std::size_t n = schedule.size();
        p.inputs.reserve(n);
        for (const Arrival &a : schedule)
            p.inputs.push_back(sensors_ ? sensors_->next()
                                        : randomState(spec_, a.inputSeed));
        p.records.resize(n);
        std::vector<std::future<InferResponse>> futures(n);
        std::vector<Clock::time_point> due(n), submitted(n);

        p.before = counters();
        const auto start = Clock::now() + std::chrono::milliseconds(5);
        for (std::size_t i = 0; i < n; i++) {
            const Arrival &a = schedule[i];
            Record &rec = p.records[i];
            due[i] = start + msDuration(a.dueMs);
            const auto deadline = spec_.deadlineMs > 0.0
                                      ? due[i] + msDuration(a.deadlineMs)
                                      : Clock::time_point::max();
            Tensor x = p.inputs[i];
            std::this_thread::sleep_until(due[i]);
            submitted[i] = Clock::now();
            InferenceServer::Submission sub;
            {
                TraceSpan span("bench.submit", "bench");
                sub = live_.server->submit(std::move(x), a.stream, deadline);
            }
            rec.submitUs = msBetween(submitted[i], Clock::now()) * 1e3;
            rec.input = i;
            rec.atMs = a.dueMs;
            rec.stream = a.stream;
            rec.accepted = sub.accepted;
            if (sub.accepted)
                futures[i] = std::move(sub.result);
        }
        for (std::size_t i = 0; i < n; i++) {
            Record &rec = p.records[i];
            const double server_ms =
                rec.accepted ? (rec.response = futures[i].get()).totalMs : 0.0;
            const DueTiming timing = fromDue(due[i], submitted[i], server_ms);
            rec.lagMs = timing.lagMs;
            rec.latencyMs = timing.latencyMs;
        }
        p.seconds = msBetween(start, Clock::now()) * 1e-3;
        p.after = counters();
        return p;
    }

    /** One request in flight: the next is due when the previous one
     *  returns; inputs are unique per request. */
    Phase
    closedLoop(double seconds, std::uint64_t phase_seed)
    {
        Phase p;
        constexpr std::size_t kPool = 2048;
        p.plannedSec = seconds;
        p.inputs.reserve(kPool);
        for (std::size_t i = 0; i < kPool; i++)
            p.inputs.push_back(randomState(spec_, mix64(phase_seed + i)));

        p.before = counters();
        const auto start = Clock::now();
        auto due = start;
        for (std::size_t i = 0; msBetween(start, due) < seconds * 1e3; i++) {
            Record rec;
            rec.input = i % kPool;
            rec.atMs = msBetween(start, due);
            rec.stream = spec_.firstStream;
            Tensor x = p.inputs[rec.input];
            const auto t0 = Clock::now();
            InferenceServer::Submission sub;
            {
                TraceSpan span("bench.submit", "bench");
                sub = live_.server->submit(std::move(x), spec_.firstStream);
            }
            rec.submitUs = msBetween(t0, Clock::now()) * 1e3;
            rec.accepted = sub.accepted;
            if (sub.accepted) {
                TraceSpan span("bench.wait", "bench");
                rec.response = sub.result.get();
            }
            const auto done = Clock::now();
            const DueTiming timing = fromDue(due, t0, msBetween(t0, done));
            rec.lagMs = timing.lagMs;
            rec.latencyMs = timing.latencyMs;
            p.records.push_back(std::move(rec));
            due = done;
        }
        p.seconds = msBetween(start, due) * 1e-3;
        p.after = counters();
        return p;
    }

    Spec spec_;
    std::uint64_t seed_;
    std::uint64_t phases_ = 0;
    Deployment live_;
    std::optional<SensorPopulation> sensors_;
    SolvedIndex solved_;
};

// --- output checks --------------------------------------------------

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

struct CheckSummary
{
    std::uint64_t checked = 0;
    std::uint64_t bitwise = 0; ///< checked for bitwise equality
    std::uint64_t bounded = 0; ///< checked against a tolerance bound
    std::uint64_t finite = 0;  ///< checked for finiteness (and version)
    std::uint64_t wrong = 0;
    double worstBoundShare = 0.0; ///< largest diff / bound seen
};

/**
 * Check an evenly strided sample of the phase's Ok responses (after
 * timing) and mark the failures in the records:
 *  - train-mix: finite, served with a published registry version;
 *  - plain solves: bitwise equal to a single-threaded NodeModel::forward;
 *  - cache hits: bitwise equal to a solve of the same input bytes seen
 *    earlier in the run (the cached bytes may come from a warm-started
 *    solve, so not necessarily the cold reference's);
 *  - warm-started / brownout-relaxed solves: within kBoundPerStep
 *    tolerances per accepted step of the cold reference;
 *  - degraded (ladder) responses: finite.
 */
CheckSummary
checkOutputs(const Spec &spec, Phase &p, const InferenceServer &server,
             const SolvedIndex &solved)
{
    CheckSummary sum;
    std::vector<std::size_t> ok_records;
    for (std::size_t i = 0; i < p.records.size(); i++)
        if (p.records[i].accepted &&
            p.records[i].response.status == RequestStatus::Ok)
            ok_records.push_back(i);
    const std::size_t stride = std::max<std::size_t>(
        1, ok_records.size() / (spec.conv ? kMaxConvChecks : kMaxChecks));
    std::vector<std::size_t> sample;
    std::size_t extra_plain = 0;
    for (std::size_t k = 0; k < ok_records.size(); k++) {
        const InferResponse &r = p.records[ok_records[k]].response;
        const bool plain = !r.cacheHit && !r.warmStarted &&
                           !r.brownoutRelaxed && !r.degraded;
        if (k % stride == 0)
            sample.push_back(ok_records[k]);
        else if (plain && !spec.conv && extra_plain++ < kMaxChecks)
            sample.push_back(ok_records[k]);
    }

    std::unique_ptr<NodeModel> ref = makeModel(spec);
    SlopeAdaptiveController controller;
    const IvpOptions opts = ivpOptions(spec);
    const double relax =
        spec.overload ? serverOptions(spec).overload.brownoutToleranceFactor
                      : 1.0;
    const auto solvedAs = [&](const Tensor &input, const Tensor &output) {
        const auto it = solved.find(hashTensor(input).lo);
        return it != solved.end() &&
               std::any_of(it->second.begin(), it->second.end(),
                           [&](const Tensor &t) {
                               return bitwiseEqual(t, output);
                           });
    };

    const std::uint64_t live = server.registry().latestVersion();
    for (std::size_t i : sample) {
        Record &rec = p.records[i];
        const InferResponse &r = rec.response;
        const Tensor &input = p.inputs[rec.input];
        sum.checked++;
        bool ok = r.output.isFinite() && r.output.shape() == input.shape();
        if (spec.training) {
            sum.finite++;
            ok = ok && r.modelVersion >= 1 && r.modelVersion <= live;
        } else if (!ok || r.degraded) {
            sum.finite++;
        } else if (r.cacheHit) {
            sum.bitwise++;
            ok = solvedAs(input, r.output);
        } else {
            const NodeForwardResult cold =
                ref->forward(input, ButcherTableau::rk23(), controller, opts);
            if (!r.warmStarted && !r.brownoutRelaxed) {
                sum.bitwise++;
                ok = bitwiseEqual(cold.output, r.output);
            } else {
                sum.bounded++;
                const double eps =
                    opts.tolerance * (r.brownoutRelaxed ? relax : 1.0);
                const double bound =
                    kBoundPerStep * eps *
                    static_cast<double>(cold.totalStats.evalPoints +
                                        r.stats.evalPoints + 1);
                const double diff = Tensor::maxAbsDiff(cold.output, r.output);
                sum.worstBoundShare =
                    std::max(sum.worstBoundShare, diff / bound);
                ok = diff <= bound;
            }
        }
        if (!ok) {
            rec.wrong = true;
            sum.wrong++;
        }
    }
    return sum;
}

/**
 * The train-mix determinism check: replay the run's training steps
 * serially (same examples, fresh server with no inference traffic) and
 * compare the final parameter digests.
 */
bool
replayMatches(const Spec &spec, std::uint64_t seed, std::uint64_t steps,
              const Hash128 &digest)
{
    ServerOptions opts = serverOptions(spec);
    opts.numWorkers = 4;
    InferenceServer server([spec] { return makeModel(spec); }, opts,
                           makeController);
    const TrainingOptions topts = trainingOptions(spec);
    TrainingService replay(server, makeModel(spec), topts);
    std::vector<TrainExample> batch(topts.batchSize);
    for (std::uint64_t step = 0; step < steps; step++) {
        for (std::size_t j = 0; j < batch.size(); j++)
            batch[j] = trainExample(seed, step * batch.size() + j);
        replay.step(batch);
    }
    const bool same = paramsDigest(replay.master()) == digest;
    server.stop();
    return same;
}

// --- direct layer probes (traced run) -------------------------------

/** Median microseconds per call of fn over 7 timed batches, each batch
 *  long enough (>= ~200 us) for the clock to resolve. */
template <typename Fn>
double
usPerCall(Fn &&fn)
{
    auto t0 = Clock::now();
    fn();
    const double once_us = std::max(0.05, msBetween(t0, Clock::now()) * 1e3);
    const int inner = static_cast<int>(std::clamp(200.0 / once_us, 1.0, 2e4));
    std::vector<double> per_call;
    for (int rep = 0; rep < 7; rep++) {
        t0 = Clock::now();
        for (int i = 0; i < inner; i++)
            fn();
        per_call.push_back(msBetween(t0, Clock::now()) * 1e3 / inner);
    }
    return median(per_call);
}

struct Probes
{
    double fevalUs = 0.0;
    double linearUs = 0.0; ///< Linear layers of one f evaluation
    double conv2dUs = 0.0; ///< Conv2d layers of one f evaluation
    double batchedUsPerSample = 0.0;
    double intraOpSpeedup = 0.0;
    double trialSelfUs = 0.0;
    double backwardMsP50 = 0.0; ///< train-mix only
};

/** Time the nn, task-pool, solver and trainer layers by calling them
 *  directly on states of the workload. */
Probes
runProbes(const Spec &spec, const std::vector<Tensor> &states)
{
    Probes result;
    std::unique_ptr<NodeModel> model = makeModel(spec);
    EmbeddedNet &net = model->net(0);
    Sequential &body = net.body();
    const std::size_t k = std::min<std::size_t>(states.size(), 8);
    ENODE_ASSERT(k > 0, "probes need workload states");

    {
        TraceSpan span("probe.nn", "bench");
        std::vector<double> feval, linear, conv;
        for (std::size_t s = 0; s < k; s++) {
            feval.push_back(usPerCall([&] { net.eval(0.5, states[s]); }));
            // Layer by layer on the activations one f evaluation sees.
            double lin = 0.0, cv = 0.0;
            Tensor cur = states[s];
            for (std::size_t i = 0; i < body.size(); i++) {
                Layer &layer = body.layer(i);
                const double us =
                    usPerCall([&] { (void)layer.forward(cur); });
                if (dynamic_cast<Linear *>(&layer) != nullptr)
                    lin += us;
                else if (dynamic_cast<Conv2d *>(&layer) != nullptr)
                    cv += us;
                cur = layer.forward(cur);
            }
            linear.push_back(lin);
            conv.push_back(cv);
        }
        result.fevalUs = median(feval);
        result.linearUs = median(linear);
        result.conv2dUs = median(conv);

        Tensor hs(stateShape(spec).prepended(k));
        for (std::size_t s = 0; s < k; s++)
            hs.setSample(s, states[s]);
        const std::vector<double> ts(k, 0.5);
        Tensor out;
        result.batchedUsPerSample =
            usPerCall([&] { net.evalBatched(ts, hs, out); }) /
            static_cast<double>(k);
    }
    {
        TraceSpan span("probe.task_pool", "bench");
        TaskPool pool(kIntraOpWidth - 1);
        double parallel_us = 0.0;
        {
            IntraOpScope scope(&pool, kIntraOpWidth);
            parallel_us = usPerCall([&] { net.eval(0.5, states[0]); });
        }
        const double serial_us = usPerCall([&] { net.eval(0.5, states[0]); });
        result.intraOpSpeedup = serial_us / parallel_us;
    }
    {
        TraceSpan span("probe.solver", "bench");
        SlopeAdaptiveController controller;
        const IvpOptions opts = ivpOptions(spec);
        double total_us = 0.0;
        IvpStats stats;
        for (std::size_t s = 0; s < k; s++) {
            const auto t0 = Clock::now();
            NodeForwardResult fwd = model->forward(
                states[s], ButcherTableau::rk23(), controller, opts);
            total_us += msBetween(t0, Clock::now()) * 1e3;
            stats.accumulate(fwd.totalStats);
        }
        result.trialSelfUs =
            (total_us - static_cast<double>(stats.fEvals) * result.fevalUs) /
            static_cast<double>(std::max<std::uint64_t>(1, stats.trials));
    }
    if (spec.training) {
        TraceSpan span("probe.aca_backward", "bench");
        SlopeAdaptiveController controller;
        const IvpOptions opts = trainingOptions(spec).ivp;
        std::vector<double> ms;
        for (std::size_t s = 0; s < k; s++) {
            NodeForwardResult fwd = model->forward(
                states[s], ButcherTableau::rk23(), controller, opts);
            const Tensor grad = fwd.output - states[s] * 0.5f;
            model->zeroGrad();
            const auto t0 = Clock::now();
            (void)acaBackward(*model, ButcherTableau::rk23(), fwd, grad);
            ms.push_back(msBetween(t0, Clock::now()));
        }
        result.backwardMsP50 = median(ms);
    }
    return result;
}

// --- metrics --------------------------------------------------------

/** Windows for the median latency: one per kMedianWindowSec. */
std::size_t
medianWindows(const Phase &p)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(p.plannedSec / kMedianWindowSec));
}

/** Windows for the tails: as many of at least kTailWindowSec as still
 *  give every stream's share of the planned traffic kTailSamples samples
 *  per window (one window for the closed loop, whose rate is not
 *  planned). */
std::size_t
tailWindows(const Spec &spec, const Phase &p)
{
    const double per_stream = spec.ratePerSec * p.plannedSec /
                              static_cast<double>(spec.numStreams);
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::min(p.plannedSec / kTailWindowSec,
                                             per_stream / kTailSamples)));
}

/** Ok-response latencies (from due) of the phase, optionally of one
 *  stream only, split into n windows of equal due time. */
std::vector<std::vector<double>>
windowedLatencies(const Phase &p, std::size_t n,
                  std::optional<std::uint32_t> stream = {})
{
    const double width_ms = p.plannedSec * 1e3 / static_cast<double>(n);
    std::vector<std::vector<double>> windows(n);
    for (const Record &rec : p.records)
        if (rec.accepted && rec.response.status == RequestStatus::Ok &&
            (!stream || rec.stream == *stream))
            windows[std::min(n - 1, static_cast<std::size_t>(
                                        std::max(0.0, rec.atMs) / width_ms))]
                .push_back(rec.latencyMs);
    return windows;
}

/** The lower quartile over windows of each window's median latency. */
Metric
windowedMedian(const char *name, const std::vector<std::vector<double>> &ws)
{
    std::vector<double> per_window;
    std::size_t samples = 0;
    for (const auto &w : ws) {
        per_window.push_back(median(w));
        samples += w.size();
    }
    char note[160];
    std::snprintf(note, sizeof(note),
                  "lower quartile over %zu windows (range %.3g-%.3g) of the "
                  "window median, %zu samples",
                  ws.size(),
                  *std::min_element(per_window.begin(), per_window.end()),
                  *std::max_element(per_window.begin(), per_window.end()),
                  samples);
    return {name, quantile(per_window, kCalmQuantile), "ms", note};
}

/**
 * goodput_rps or throughput_rps. An open loop's rate is set by its
 * schedule: Ok (or good) responses over the phase's seconds. The closed
 * loop's rate is its capacity: the upper quartile over windows of each
 * window's rate, the counterpart of latency_p50_ms.
 */
Metric
rateMetric(const Spec &spec, const Phase &p, const char *name, bool good)
{
    const auto counts = [good](const Record &rec) {
        return rec.accepted && rec.response.status == RequestStatus::Ok &&
               (!good || (rec.response.deadlineMet && !rec.wrong));
    };
    if (spec.ratePerSec > 0.0)
        return {name,
                static_cast<double>(std::count_if(p.records.begin(),
                                                  p.records.end(), counts)) /
                    p.seconds,
                "1/s", ""};
    // Requests follow each other back to back, so a window's rate is its
    // counted responses over the latency of all its requests.
    const std::size_t n = medianWindows(p);
    const double width_ms = p.plannedSec * 1e3 / static_cast<double>(n);
    std::vector<double> counted(n, 0.0), busy_ms(n, 0.0);
    for (const Record &rec : p.records) {
        const std::size_t w = std::min(
            n - 1, static_cast<std::size_t>(std::max(0.0, rec.atMs) /
                                            width_ms));
        counted[w] += counts(rec) ? 1.0 : 0.0;
        busy_ms[w] += rec.latencyMs;
    }
    std::vector<double> rates;
    for (std::size_t w = 0; w < n; w++)
        if (busy_ms[w] > 0.0)
            rates.push_back(counted[w] * 1e3 / busy_ms[w]);
    return {name, quantile(rates, 1.0 - kCalmQuantile), "1/s",
            "upper quartile over " + std::to_string(n) +
                " windows of the window rate"};
}

/** The median over windows of each window's tail percentile. */
Metric
windowedTail(const char *name, const std::vector<std::vector<double>> &ws)
{
    std::vector<double> per_window;
    double lowest_pct = 100.0;
    std::size_t samples = 0;
    for (const auto &w : ws) {
        const Tail t = tailPercentile(w);
        per_window.push_back(t.value);
        lowest_pct = std::min(lowest_pct, t.pct);
        samples += w.size();
    }
    char note[160];
    std::snprintf(note, sizeof(note),
                  "median over %zu windows (range %.3g-%.3g) of the window "
                  "p%g (>= 10 samples beyond), %zu samples",
                  ws.size(),
                  *std::min_element(per_window.begin(), per_window.end()),
                  *std::max_element(per_window.begin(), per_window.end()),
                  lowest_pct, samples);
    return {name, median(per_window), "ms", note};
}

Tally
tally(const Phase &p)
{
    Tally t;
    for (const Record &rec : p.records) {
        t.add(rec.accepted ? &rec.response : nullptr);
        if (rec.wrong) {
            t.wrong++;
            t.good -= rec.response.deadlineMet ? 1 : 0;
        }
    }
    return t;
}

std::string
tailNote(const Tail &t)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "p%g of %zu samples", t.pct, t.n);
    return buf;
}

/**
 * latency_p99_ms and stream0_latency_p99_ms. On a shared host their
 * run-to-run spread on sensor-mlp reached 0.25 and more (vCPU steal sets
 * the tail), so BENCHMARK.json lists them per layer, without a bound;
 * every run still prints them.
 */
std::vector<Metric>
tailMetrics(const Spec &spec, const Phase &p)
{
    const std::size_t n = tailWindows(spec, p);
    Metric low = windowedTail("stream0_latency_p99_ms",
                              windowedLatencies(p, n, spec.firstStream));
    low.note = "stream " + std::to_string(spec.firstStream) + ", " + low.note;
    return {windowedTail("latency_p99_ms", windowedLatencies(p, n)), low};
}

std::vector<Metric>
endToEndMetrics(const Spec &spec, const Phase &p, double setup_s)
{
    return {
        windowedMedian("latency_p50_ms",
                       windowedLatencies(p, medianWindows(p))),
        rateMetric(spec, p, "goodput_rps", true),
        rateMetric(spec, p, "throughput_rps", false),
        {"setup_s", setup_s, "s",
         "median of " + std::to_string(kSetupReps) + " set-ups"},
        {"peak_rss_mb", peakRssMb(), "MB", ""},
    };
}

double
p50Of(const std::map<std::string, SpanStats> &ledger, const char *name)
{
    const auto it = ledger.find(name);
    return it == ledger.end() ? 0.0 : median(it->second.durUs);
}

/** Per-layer metrics: response/counter-derived ones from the untraced
 *  phase, span-derived ones from the traced phase, plus the probes. */
std::vector<Metric>
perLayerMetrics(const Phase &plain, const Phase &traced,
                const std::map<std::string, SpanStats> &spans,
                std::uint64_t dropped, const Probes &probe)
{
    std::vector<double> wait, solve, overhead, lag, submit_us;
    std::uint64_t solved = 0, hits = 0, warm = 0, degraded = 0;
    std::uint64_t ok = 0, trials = 0, rejected_trials = 0, points = 0,
                  fevals = 0;
    std::uint64_t warm_trials = 0, warm_points = 0, cold_trials = 0,
                  cold_points = 0;
    for (const Record &rec : plain.records) {
        lag.push_back(rec.lagMs);
        submit_us.push_back(rec.submitUs);
        const InferResponse &r = rec.response;
        if (!rec.accepted || r.status != RequestStatus::Ok)
            continue;
        ok++;
        degraded += r.degraded ? 1 : 0;
        if (r.cacheHit) {
            hits++;
            continue;
        }
        solved++;
        wait.push_back(r.queueWaitMs);
        solve.push_back(r.solveMs);
        overhead.push_back(r.totalMs - r.queueWaitMs - r.solveMs);
        trials += r.stats.trials;
        rejected_trials += r.stats.rejected;
        points += r.stats.evalPoints;
        fevals += r.stats.fEvals;
        (r.warmStarted ? warm_trials : cold_trials) += r.stats.trials;
        (r.warmStarted ? warm_points : cold_points) += r.stats.evalPoints;
        warm += r.warmStarted ? 1 : 0;
    }
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto delta = [&](auto field) {
        return static_cast<double>(field(plain.after) - field(plain.before));
    };
    const Counters &b = plain.before, &a = plain.after;
    double brownout_ms = 0.0, all_ms = 0.0;
    for (int level = 0; level < 4; level++) {
        const double ms = a.residencyMs[level] - b.residencyMs[level];
        all_ms += ms;
        brownout_ms += level >= 1 ? ms : 0.0;
    }
    const double dispatches = delta(
        [](const Counters &c) { return c.metrics.batchesDispatched; });
    const Tally t = tally(plain);
    const auto p50 = [](const Phase &p) {
        std::vector<double> ms;
        for (const Record &rec : p.records)
            if (rec.accepted && rec.response.status == RequestStatus::Ok)
                ms.push_back(rec.latencyMs);
        return median(ms);
    };
    const double traced_p50 = p50(traced);
    const double plain_p50 = p50(plain);
    const double ok_d = static_cast<double>(ok);
    const Tail wait_tail = tailPercentile(wait);
    const Tail solve_tail = tailPercentile(solve);

    return {
        {"queue.wait_p50_ms", median(wait), "ms", ""},
        {"queue.wait_p99_ms", wait_tail.value, "ms", tailNote(wait_tail)},
        {"queue.rejected", static_cast<double>(t.rejected), "count", ""},
        {"admission.submit_us_p50", median(submit_us), "us", ""},
        {"admission.shed", static_cast<double>(t.shed), "count", ""},
        {"admission.brownout_share", ratio(brownout_ms, all_ms), "ratio",
         "time at brownout level >= 1"},
        {"batcher.dispatches", dispatches, "count", ""},
        {"batcher.occupancy_mean",
         ratio(delta([](const Counters &c) {
                   return c.metrics.batchedRequests;
               }),
               dispatches),
         "req", ""},
        {"batcher.coalesce_wait_p50_ms", p50Of(spans, "batch.collect") * 1e-3,
         "ms", "batch.collect spans"},
        {"cache.exact_hit_ratio", ratio(static_cast<double>(hits), ok_d),
         "ratio", ""},
        {"cache.warm_hit_ratio", ratio(static_cast<double>(warm), ok_d),
         "ratio", ""},
        {"cache.single_flight_waits",
         delta([](const Counters &c) { return c.singleFlightWaits; }),
         "count", ""},
        {"cache.lookup_us_p50", p50Of(spans, "cache.lookup"), "us",
         "cache.lookup spans"},
        {"solver.trials_per_point_warm",
         ratio(static_cast<double>(warm_trials),
               static_cast<double>(warm_points)),
         "trials", ""},
        {"solver.trials_per_point_cold",
         ratio(static_cast<double>(cold_trials),
               static_cast<double>(cold_points)),
         "trials", ""},
        {"serve.solve_ms_p50", median(solve), "ms", ""},
        {"serve.solve_ms_p99", solve_tail.value, "ms", tailNote(solve_tail)},
        {"serve.overhead_ms_p50", median(overhead), "ms",
         "total - queue wait - solve"},
        {"serve.degraded", static_cast<double>(degraded), "count", ""},
        {"solver.trials_per_point",
         ratio(static_cast<double>(trials), static_cast<double>(points)),
         "trials", ""},
        {"solver.accept_ratio",
         ratio(static_cast<double>(trials - rejected_trials),
               static_cast<double>(trials)),
         "ratio", ""},
        {"solver.fevals_per_request",
         ratio(static_cast<double>(fevals), static_cast<double>(solved)),
         "fevals", ""},
        {"solver.trial_self_us", probe.trialSelfUs, "us",
         "direct forward minus its f-evals, per trial"},
        {"nn.feval_us", probe.fevalUs, "us", ""},
        {"nn.linear_us", probe.linearUs, "us", "per f evaluation"},
        {"nn.conv2d_us", probe.conv2dUs, "us", "per f evaluation"},
        {"nn.feval_batched_us_per_sample", probe.batchedUsPerSample, "us",
         "batch of 8"},
        {"taskpool.intra_op_speedup", probe.intraOpSpeedup, "x",
         "serial / width-3 f evaluation"},
        {"train.backward_ms_p50", probe.backwardMsP50, "ms", ""},
        {"train.task_ms_p50", p50Of(spans, "train.task") * 1e-3, "ms",
         "train.task spans"},
        {"train.step_ms_p50", p50Of(spans, "train.step") * 1e-3, "ms",
         "train.step spans"},
        {"train.task_retries",
         delta([](const Counters &c) { return c.taskRetries; }), "count", ""},
        {"train.task_failures",
         delta([](const Counters &c) { return c.taskFailures; }), "count",
         ""},
        {"model.swaps", delta([](const Counters &c) { return c.swaps; }),
         "count", ""},
        {"model.swap_us_p50", p50Of(spans, "model.swap"), "us",
         "model.swap spans"},
        {"train_steps_per_s",
         delta([](const Counters &c) { return c.trainSteps; }) /
             plain.seconds,
         "1/s", ""},
        {"failed_ratio", t.failedRatio(), "ratio",
         std::to_string(t.failures()) + " of " +
             std::to_string(t.attempted) + " attempted"},
        {"loadgen.lag_p99_ms", tailPercentile(lag).value, "ms", ""},
        {"trace.dropped", static_cast<double>(dropped), "count", ""},
        {"trace.overhead_ratio", ratio(traced_p50, plain_p50), "ratio",
         "traced / untraced latency_p50_ms"},
    };
}

// --- printing -------------------------------------------------------

void
printStamp(const Spec &spec, const RunOptions &o)
{
    std::printf(
        "stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"build_type\": \"%s\", \"simd\": \"%s\", "
        "\"hardware_concurrency\": %u, \"git_rev\": \"%s\", "
        "\"src_digest\": \"%s\", \"loop\": \"%s\", \"rate_per_s\": %g, "
        "\"workers\": %zu, \"max_batch\": %zu, \"intra_op\": %zu, "
        "\"cache\": %s, \"overload\": %s, \"training\": %s, "
        "\"controller\": \"slope-adaptive\", \"tolerance\": %g, "
        "\"initial_dt\": %g, \"streams\": \"%u-%u\", "
        "\"deadline_ms\": %g, \"warmup_s\": %g}\n",
        spec.name, static_cast<unsigned long long>(o.seed), o.seconds,
        o.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
        simdBackendName(activeSimdBackend()),
        std::thread::hardware_concurrency(), o.gitRev.c_str(),
        o.srcDigest.c_str(), spec.ratePerSec > 0.0 ? "open" : "closed",
        spec.ratePerSec, spec.workers, spec.maxBatch, spec.intraOp,
        spec.cache ? "true" : "false", spec.overload ? "true" : "false",
        spec.training ? "true" : "false", spec.tolerance, spec.initialDt,
        spec.firstStream, spec.firstStream + spec.numStreams - 1,
        spec.deadlineMs, kWarmupSec);
}

void
printMetrics(const char *label, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-6s %-32s %14.6g %-6s %s\n", label, m.name.c_str(),
                    m.value, m.unit.c_str(), m.note.c_str());
}

void
printLedger(const char *label, const std::map<std::string, SpanStats> &l)
{
    for (const auto &[name, s] : l)
        std::printf("span %-6s %-22s count=%-8llu total_ms=%-12.3f "
                    "self_ms=%.3f\n",
                    label, name.c_str(),
                    static_cast<unsigned long long>(s.count), s.totalMs,
                    s.selfMs);
}

void
printChecks(const char *label, const CheckSummary &c)
{
    std::printf("check %s: %llu responses checked (%llu bitwise, %llu "
                "bounded with worst diff/bound %.3g, %llu finite-only), "
                "%llu wrong\n",
                label, static_cast<unsigned long long>(c.checked),
                static_cast<unsigned long long>(c.bitwise),
                static_cast<unsigned long long>(c.bounded), c.worstBoundShare,
                static_cast<unsigned long long>(c.finite),
                static_cast<unsigned long long>(c.wrong));
}

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Spec &spec : kSpecs)
        names.push_back(spec.name);
    return names;
}

int
run(const RunOptions &o)
{
    const Spec *found = nullptr;
    for (const Spec &spec : kSpecs)
        if (o.workload == spec.name)
            found = &spec;
    if (found == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
        return 2;
    }
    const Spec &spec = *found;
    setLogLevel(LogLevel::Warn);
    Tracer::instance().setThreadName("bench");
    printStamp(spec, o);

    Bench bench(spec, o.seed);
    bench.startTraining();
    bench.runPhase(kWarmupSec);
    Phase plain = bench.runPhase(o.seconds);
    if (!o.trace)
        bench.stopTraining();

    Phase traced;
    std::map<std::string, SpanStats> serve_spans, probe_spans;
    std::uint64_t dropped = 0;
    Probes probes;
    if (o.trace) {
        // A short untimed pre-roll lets every thread allocate its ring
        // before the traced phase starts; only spans ending inside the
        // phase enter the ledger.
        Tracer &tracer = Tracer::instance();
        tracer.arm(kTraceRing);
        bench.runPhase(kPreRollSec);
        const std::int64_t phase_start_ns = tracer.nowNs();
        traced = bench.runPhase(std::min(o.seconds, kTracedMaxSec));
        bench.stopTraining();
        tracer.disarm();
        std::vector<TraceEvent> events = tracer.snapshot();
        std::erase_if(events, [&](const TraceEvent &ev) {
            return ev.startNs + std::max<std::int64_t>(ev.durNs, 0) <
                   phase_start_ns;
        });
        serve_spans = spanLedger(events);
        dropped = tracer.dropped();
        tracer.arm(kTraceRing);
        std::vector<Tensor> states;
        for (std::size_t i = 0; i < traced.inputs.size() && i < 8; i++)
            states.push_back(traced.inputs[i]);
        probes = runProbes(spec, states);
        tracer.disarm();
        probe_spans = spanLedger(tracer.snapshot());
    }

    // Set-up is timed with the process warm: the first second of a
    // process runs slow on shared hosts.
    const double setup_s = o.trace ? 0.0 : setupSeconds(spec, o.seed);

    // Output checks, after all timing.
    bool correct = true;
    const CheckSummary plain_checks =
        checkOutputs(spec, plain, bench.server(), bench.solved());
    printChecks("untraced", plain_checks);
    correct = correct && plain_checks.wrong == 0;
    if (o.trace) {
        const CheckSummary traced_checks =
            checkOutputs(spec, traced, bench.server(), bench.solved());
        printChecks("traced", traced_checks);
        correct = correct && traced_checks.wrong == 0;
    }
    if (TrainingService *trainer = bench.trainer()) {
        const std::uint64_t steps = trainer->steps();
        const bool same = replayMatches(spec, o.seed, steps,
                                        paramsDigest(trainer->master()));
        std::printf("check training: %llu steps, final parameter digest %s "
                    "the serial replay\n",
                    static_cast<unsigned long long>(steps),
                    same ? "matches" : "DIFFERS FROM");
        correct = correct && same;
    }

    Tally total = tally(plain);
    if (o.trace)
        total += tally(traced);
    std::vector<double> lag;
    for (const Record &rec : plain.records)
        lag.push_back(rec.lagMs);
    const double lag_p99 = tailPercentile(lag).value;
    std::printf("loadgen lag_p99_ms %.4f (limit %.1f): %s\n", lag_p99,
                kLagLimitMs,
                lag_p99 <= kLagLimitMs ? "valid"
                                       : "INVALID, the generator fell behind");
    std::printf("outcomes attempted=%llu ok=%llu good=%llu rejected=%llu "
                "shed=%llu expired=%llu failed=%llu cancelled=%llu "
                "wrong=%llu failed_ratio=%.6g\n",
                static_cast<unsigned long long>(total.attempted),
                static_cast<unsigned long long>(total.ok),
                static_cast<unsigned long long>(total.good),
                static_cast<unsigned long long>(total.rejected),
                static_cast<unsigned long long>(total.shed),
                static_cast<unsigned long long>(total.expired),
                static_cast<unsigned long long>(total.failed),
                static_cast<unsigned long long>(total.cancelled),
                static_cast<unsigned long long>(total.wrong),
                total.failedRatio());

    std::vector<Metric> metrics = tailMetrics(spec, plain);
    if (o.trace) {
        for (Metric &m :
             perLayerMetrics(plain, traced, serve_spans, dropped, probes))
            metrics.push_back(std::move(m));
        printLedger("serve", serve_spans);
        printLedger("probe", probe_spans);
    } else {
        // The tails are printed, but are not end-to-end metrics.
        printMetrics("tail", metrics);
        metrics = endToEndMetrics(spec, plain, setup_s);
    }
    printMetrics("metric", metrics);
    std::printf("%s\n", resultJson(correct, total.attempted,
                                   total.failures(), metrics)
                            .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace perfbench
