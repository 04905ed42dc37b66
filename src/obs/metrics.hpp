// Metrics registry: named counters, gauges and histograms.
//
// The registry is the run's numeric dashboard: the cluster refreshes its
// gauges once per tick, counters accumulate decision/lifecycle tallies, and
// the profiling hooks (obs/profile.hpp) feed wall-clock timings into
// histograms: running count/sum/extrema plus the last `window` raw samples,
// whose percentiles come from core::percentile, the repo's one percentile
// path. Everything is dumpable as deterministic (name-sorted) JSON —
// knots_ctl --metrics-out.
//
// Naming convention (DESIGN.md §8): dotted lower-case "<module>.<what>",
// with the unit as a suffix when it is not obvious — e.g.
// "sched.on_schedule_ns", "cluster.pending_pods", "telemetry.agg_sort_ns".
//
// Handles returned by counter()/gauge()/histogram() stay valid for the
// registry's lifetime (node-based map storage). Not thread-safe; parallel
// sweeps attach one registry per run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "core/ring_buffer.hpp"

namespace knots::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Running count/sum/extrema over all samples plus exact percentiles over
/// the most recent `window` samples. Recording is O(1); a quantile selects
/// over a copy of the window.
class Histogram {
 public:
  explicit Histogram(std::size_t window = 1024) : recent_(window) {}

  void record(double x);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0 : max_; }
  /// Type-7 percentile of the recent window, p in [0, 100]; 0 when empty.
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] std::size_t window_count() const noexcept {
    return recent_.size();
  }

 private:
  RingBuffer<double> recent_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Finds or creates the named instrument. References stay valid for the
  /// registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::size_t window = 1024);

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Deterministic JSON dump: {"counters":{...},"gauges":{...},
  /// "histograms":{...}}, each name-sorted; histograms expand to
  /// count/mean/min/max/p50/p99 (percentiles over the recent window).
  void to_json(std::ostream& os) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace knots::obs
