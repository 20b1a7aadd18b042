#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "workloads/load_gen.h"

namespace perfbench {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

/** Index of the nearest-rank pct-th percentile in n sorted samples. */
std::size_t
rankIndex(std::size_t n, double pct)
{
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
    return static_cast<std::size_t>(std::clamp(rank, 1.0,
                                               static_cast<double>(n))) -
           1;
}

} // namespace

Tail
tailPercentile(std::vector<double> values, double maxPct, std::size_t beyond)
{
    Tail tail;
    tail.n = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    for (double pct = std::floor(maxPct); pct >= 50.0; pct -= 1.0) {
        const std::size_t idx = rankIndex(values.size(), pct);
        if (values.size() - 1 - idx >= beyond) {
            tail.value = values[idx];
            tail.pct = pct;
            return tail;
        }
    }
    tail.value = values.back();
    tail.pct = 100.0;
    return tail;
}

std::vector<Arrival>
poissonSchedule(double ratePerSec, double seconds, std::uint32_t numStreams,
                std::uint32_t firstStream, double deadlineMs,
                std::uint64_t seed)
{
    enode::LoadGenOptions opts;
    opts.process = enode::ArrivalProcess::Poisson;
    opts.ratePerSec = ratePerSec;
    opts.seed = seed;
    opts.numStreams = numStreams;
    opts.deadlineMeanMs = deadlineMs;
    opts.deadlineJitter = 0.25;
    opts.stiffFraction = 0.0;
    std::vector<Arrival> out;
    for (const enode::ArrivalEvent &ev :
         enode::LoadGen(opts).schedule(seconds))
        out.push_back({ev.atMs, firstStream + ev.stream, ev.deadlineBudgetMs,
                       ev.inputSeed});
    return out;
}

DueTiming
fromDue(Clock::time_point due, Clock::time_point submitAt, double serverMs)
{
    DueTiming timing;
    timing.lagMs = msBetween(due, submitAt);
    timing.latencyMs = timing.lagMs + serverMs;
    return timing;
}

void
Tally::add(const enode::InferResponse *response)
{
    using enode::RequestStatus;
    attempted++;
    if (response == nullptr) {
        rejected++;
        return;
    }
    switch (response->status) {
    case RequestStatus::Ok:
        ok++;
        if (response->deadlineMet)
            good++;
        break;
    case RequestStatus::Shed:
        shed++;
        break;
    case RequestStatus::DeadlineExceeded:
        expired++;
        break;
    case RequestStatus::Failed:
        failed++;
        break;
    case RequestStatus::Cancelled:
        cancelled++;
        break;
    }
}

Tally &
Tally::operator+=(const Tally &o)
{
    attempted += o.attempted;
    ok += o.ok;
    good += o.good;
    rejected += o.rejected;
    shed += o.shed;
    expired += o.expired;
    failed += o.failed;
    cancelled += o.cancelled;
    wrong += o.wrong;
    return *this;
}

std::uint64_t
Tally::failures() const
{
    return rejected + shed + expired + failed + cancelled + wrong;
}

double
Tally::failedRatio() const
{
    return attempted == 0 ? 0.0
                          : static_cast<double>(failures()) /
                                static_cast<double>(attempted);
}

std::map<std::string, SpanStats>
spanLedger(const std::vector<enode::TraceEvent> &events)
{
    std::map<std::string, SpanStats> ledger;
    std::map<std::uint32_t, std::vector<const enode::TraceEvent *>> by_tid;
    for (const enode::TraceEvent &ev : events) {
        if (ev.instant())
            continue;
        SpanStats &s = ledger[ev.name];
        s.count++;
        s.totalMs += ev.durNs * 1e-6;
        s.selfMs += ev.durNs * 1e-6;
        s.durUs.push_back(ev.durNs * 1e-3);
        const bool retroactive =
            std::strcmp(ev.name, "request.queue_wait") == 0 ||
            std::strcmp(ev.name, "batch.collect") == 0;
        if (!retroactive)
            by_tid[ev.tid].push_back(&ev);
    }
    // Per thread: walk spans by start (outer first on ties) with a stack
    // of open parents; each span's duration leaves its direct parent's
    // self time.
    for (auto &[tid, spans] : by_tid) {
        std::sort(spans.begin(), spans.end(),
                  [](const enode::TraceEvent *a, const enode::TraceEvent *b) {
                      if (a->startNs != b->startNs)
                          return a->startNs < b->startNs;
                      return a->durNs > b->durNs;
                  });
        std::vector<const enode::TraceEvent *> open;
        for (const enode::TraceEvent *ev : spans) {
            const std::int64_t end = ev->startNs + ev->durNs;
            while (!open.empty() &&
                   open.back()->startNs + open.back()->durNs < end)
                open.pop_back();
            if (!open.empty())
                ledger[open.back()->name].selfMs -= ev->durNs * 1e-6;
            open.push_back(ev);
        }
    }
    return ledger;
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); i++) {
        const Metric &m = metrics[i];
        // %.17g round-trips a double; non-finite values are not JSON.
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
