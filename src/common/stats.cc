#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace enode {

void
Accumulator::add(double sample)
{
    if (count_ == 0) {
        min_ = sample;
        max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    count_++;
    sum_ += sample;
    sumSquares_ += sample * sample;
}

void
Accumulator::reset()
{
    count_ = 0;
    sum_ = 0.0;
    sumSquares_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

double
Accumulator::variance() const
{
    if (count_ == 0)
        return 0.0;
    const double m = mean();
    const double var = sumSquares_ / count_ - m * m;
    return var > 0.0 ? var : 0.0; // clamp tiny negative rounding residue
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

namespace {

/** splitmix64 step: deterministic stream for reservoir replacement. */
std::uint64_t
splitmixNext(std::uint64_t &state)
{
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

SampleSeries::SampleSeries(std::size_t capacity)
    : capacity_(capacity), rng_(0x5eed5e121e5u)
{
    ENODE_ASSERT(capacity_ >= 1, "SampleSeries capacity must be >= 1");
}

void
SampleSeries::add(double sample)
{
    if (count_ == 0) {
        min_ = sample;
        max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    count_++;
    sum_ += sample;

    if (samples_.size() < capacity_) {
        samples_.push_back(sample);
        sorted_ = false;
        return;
    }
    // Algorithm R: keep each of the count_ samples seen so far in the
    // reservoir with probability capacity / count_. The replacement
    // index comes from a fixed-seed stream so runs are reproducible.
    const std::uint64_t j = splitmixNext(rng_) % count_;
    if (j < capacity_) {
        samples_[static_cast<std::size_t>(j)] = sample;
        sorted_ = false;
    }
}

void
SampleSeries::reset()
{
    samples_.clear();
    sorted_ = true;
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
    rng_ = 0x5eed5e121e5u;
}

void
SampleSeries::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
SampleSeries::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
SampleSeries::min() const
{
    return count_ ? min_ : 0.0;
}

double
SampleSeries::max() const
{
    return count_ ? max_ : 0.0;
}

double
SampleSeries::percentile(double q) const
{
    ENODE_ASSERT(q >= 0.0 && q <= 100.0, "percentile out of range");
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    if (samples_.size() == 1)
        return samples_.front();
    // Linear interpolation between closest order statistics
    // (the "exclusive" definition degenerates at the ends; use the
    // standard inclusive rank r = q/100 * (n - 1)).
    const double rank =
        q / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo_idx = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo_idx);
    if (lo_idx + 1 >= samples_.size())
        return samples_.back();
    return samples_[lo_idx] +
           frac * (samples_[lo_idx + 1] - samples_[lo_idx]);
}

StatGroup::StatGroup(std::string name) : name_(std::move(name)) {}

void
StatGroup::set(const std::string &key, double value)
{
    values_[key] = {value, StatKind::Gauge};
}

void
StatGroup::setCounter(const std::string &key, double value)
{
    values_[key] = {value, StatKind::Counter};
}

void
StatGroup::add(const std::string &key, double value)
{
    values_[key].value += value;
}

const StatGroup::Entry &
StatGroup::find(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        ENODE_FATAL("unknown stat '", key, "' in group '", name_, "'");
    return it->second;
}

double
StatGroup::get(const std::string &key) const
{
    return find(key).value;
}

StatKind
StatGroup::kind(const std::string &key) const
{
    return find(key).kind;
}

bool
StatGroup::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::vector<std::string>
StatGroup::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

std::string
StatGroup::dump() const
{
    std::ostringstream oss;
    for (const auto &kv : values_) {
        if (!name_.empty())
            oss << name_ << ".";
        oss << kv.first << " = " << kv.second.value << "\n";
    }
    return oss.str();
}

} // namespace enode
