#include "runtime/metrics_publisher.h"

#include <chrono>
#include <utility>

#include "common/logging.h"

namespace enode {

MetricsPublisher::~MetricsPublisher()
{
    stop();
}

void
MetricsPublisher::addGauge(std::string name, Sampler sampler)
{
    ENODE_ASSERT(static_cast<bool>(sampler), "null gauge sampler");
    std::lock_guard<std::mutex> lock(mutex_);
    ENODE_ASSERT(!running_, "addGauge after start");
    gauges_.push_back({std::move(name), std::move(sampler), 0.0, {}});
}

void
MetricsPublisher::sampleAllLocked()
{
    for (Gauge &gauge : gauges_) {
        const double value = gauge.sampler();
        gauge.last = value;
        gauge.series.add(value);
    }
    samples_++;
}

void
MetricsPublisher::start(double period_ms)
{
    ENODE_ASSERT(period_ms > 0.0, "publisher period must be positive");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ENODE_ASSERT(!running_, "publisher already started");
        periodMs_ = period_ms;
        running_ = true;
        stopRequested_ = false;
        sampleAllLocked(); // an immediate first sample
    }
    thread_ = std::thread([this] { publisherMain(); });
}

void
MetricsPublisher::publisherMain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto period =
        std::chrono::duration<double, std::milli>(periodMs_);
    while (!cv_.wait_for(lock, period, [this] { return stopRequested_; }))
        sampleAllLocked();
}

void
MetricsPublisher::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!running_)
            return;
        running_ = false;
        stopRequested_ = true;
        sampleAllLocked(); // final sample so short runs still see data
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

std::uint64_t
MetricsPublisher::samples() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
}

StatGroup
MetricsPublisher::snapshot(const std::string &group_name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StatGroup group(group_name);
    for (const Gauge &gauge : gauges_) {
        group.set(gauge.name + ".last", gauge.last);
        group.set(gauge.name + ".mean", gauge.series.mean());
        group.set(gauge.name + ".min", gauge.series.min());
        group.set(gauge.name + ".max", gauge.series.max());
    }
    group.setCounter("publisher.samples", samples_);
    return group;
}

} // namespace enode
