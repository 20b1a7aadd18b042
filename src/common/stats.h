#ifndef ENODE_COMMON_STATS_H
#define ENODE_COMMON_STATS_H

/**
 * @file
 * Lightweight statistics package.
 *
 * Simulator components and algorithm drivers register named counters and
 * scalar statistics in a StatGroup. Benches query groups to build their
 * report tables; tests assert on individual counters. The design follows
 * the gem5 stats idea at a much smaller scale: stats are plain values
 * owned by their component, and a group only provides naming, iteration
 * and formatted dumps.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace enode {

/** Running mean / min / max / count accumulator for scalar samples. */
class Accumulator
{
  public:
    Accumulator() = default;

    /** Record one sample. */
    void add(double sample);

    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    /** Population variance of the recorded samples. */
    double variance() const;
    double stddev() const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSquares_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Bounded-memory quantile sample series.
 *
 * Below `capacity` samples every observation is stored, so percentiles
 * are exact rather than binned — the right tool for latency summaries
 * (p50/p95/p99) where tail resolution matters. Beyond the capacity the
 * series switches to reservoir sampling (Vitter's Algorithm R with a
 * fixed-seed splitmix64 stream, so runs are reproducible): storage
 * stays capped while percentiles become estimates over a uniform
 * sample of the whole stream. count(), mean(), min() and max() are
 * maintained as running accumulators and stay exact at any count — a
 * week-long soak or a persistent training service can feed a series
 * forever without growing it. Not internally synchronized; the serving
 * runtime guards its series with the metrics-registry mutex.
 */
class SampleSeries
{
  public:
    /** Default cap: exact percentiles for the first 64K samples. */
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

    explicit SampleSeries(std::size_t capacity = kDefaultCapacity);

    void add(double sample);
    void reset();

    /** Total samples observed (exact; not bounded by the capacity). */
    std::uint64_t count() const { return count_; }
    double mean() const;
    double min() const;
    double max() const;

    /** Samples currently held; never exceeds the capacity. */
    std::size_t stored() const { return samples_.size(); }
    std::size_t capacity() const { return capacity_; }

    /**
     * q-th percentile (q in [0, 100]) with linear interpolation
     * between order statistics. Exact while count() <= capacity();
     * a reservoir estimate beyond. Returns 0 when empty.
     */
    double percentile(double q) const;

  private:
    void ensureSorted() const;

    const std::size_t capacity_;
    // Exact running accumulators, independent of the reservoir.
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    /** splitmix64 state for reservoir replacement (fixed seed). */
    std::uint64_t rng_;
    // Sorted lazily on first quantile query after an insertion.
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/** How a published scalar reads over time. */
enum class StatKind
{
    /** A point-in-time value that may rise or fall. */
    Gauge,
    /** Counts events, or accumulates time, since its owner started. */
    Counter,
};

/**
 * A named collection of scalar statistics.
 *
 * Components own their numeric stats and publish them by name; the group
 * stores name -> value snapshots on dump. Hierarchical names use '.' as
 * the separator (e.g. "core0.peArray.macs"). Each value carries the
 * kind its publisher declared, so exporters never guess it from the
 * name.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "");

    /** Record (or overwrite) a named gauge. */
    void set(const std::string &key, double value);

    /** Record (or overwrite) a named counter. */
    void setCounter(const std::string &key, double value);

    /** Add to a named scalar, creating it as a zero gauge if absent. */
    void add(const std::string &key, double value);

    /** Look up a scalar; fatal if missing. */
    double get(const std::string &key) const;

    /** The kind the key was declared with; fatal if missing. */
    StatKind kind(const std::string &key) const;

    /** True if the key exists. */
    bool has(const std::string &key) const;

    /** All keys in sorted order. */
    std::vector<std::string> keys() const;

    /** Multi-line "name = value" dump. */
    std::string dump() const;

    const std::string &name() const { return name_; }

    void clear() { values_.clear(); }

  private:
    struct Entry
    {
        double value = 0.0;
        StatKind kind = StatKind::Gauge;
    };

    const Entry &find(const std::string &key) const;

    std::string name_;
    std::map<std::string, Entry> values_;
};

} // namespace enode

#endif // ENODE_COMMON_STATS_H
