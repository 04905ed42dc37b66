#include "obs/metrics.hpp"

#include <ostream>

#include "core/percentile.hpp"

namespace knots::obs {

void Histogram::record(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  sum_ += x;
  recent_.push(x);
}

double Histogram::quantile(double p) const {
  return recent_.empty() ? 0.0 : percentile(recent_.last(recent_.size()), p);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::size_t window) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(window)).first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::to_json(std::ostream& os) const {
  // Instrument names follow the convention in the header comment — plain
  // identifiers with dots — so they need no JSON escaping.
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << c.value();
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << g.value();
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": {\"count\": "
       << h.count() << ", \"mean\": " << h.mean() << ", \"min\": " << h.min()
       << ", \"max\": " << h.max() << ", \"p50\": " << h.quantile(50)
       << ", \"p99\": " << h.quantile(99) << "}";
    first = false;
  }
  os << "\n  }\n}\n";
}

}  // namespace knots::obs
