#include "cluster/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"

namespace knots::cluster {

MetricsCollector::MetricsCollector(std::size_t gpu_count)
    : per_gpu_util_(gpu_count),
      per_gpu_trace_(gpu_count),
      per_gpu_parked_(gpu_count) {
  KNOTS_CHECK(gpu_count > 0);
}

void MetricsCollector::sample_gpu_util(std::size_t gpu_index, double sm_util,
                                       bool parked) {
  KNOTS_CHECK(gpu_index < per_gpu_util_.size());
  const double pct = sm_util * 100.0;
  per_gpu_trace_[gpu_index].push_back(pct);
  per_gpu_parked_[gpu_index].push_back(parked);
  if (!parked) per_gpu_util_[gpu_index].push_back(pct);
}

void MetricsCollector::add_power_sample(double cluster_watts) {
  power_.add(cluster_watts);
}

const std::vector<double>& MetricsCollector::gpu_util_samples(
    std::size_t gpu_index) const {
  KNOTS_CHECK(gpu_index < per_gpu_util_.size());
  return per_gpu_util_[gpu_index];
}

std::vector<double> MetricsCollector::gpu_util_percentiles(
    std::size_t gpu_index, std::span<const double> ps) const {
  const auto& samples = gpu_util_samples(gpu_index);
  if (samples.empty()) return std::vector<double>(ps.size(), 0.0);
  return percentiles(samples, ps);
}

std::vector<double> MetricsCollector::cluster_util_percentiles(
    std::span<const double> ps) const {
  std::vector<double> pooled;
  for (const auto& samples : per_gpu_util_) {
    pooled.insert(pooled.end(), samples.begin(), samples.end());
  }
  if (pooled.empty()) return std::vector<double>(ps.size(), 0.0);
  return percentiles(pooled, ps);
}

double MetricsCollector::gpu_util_cov(std::size_t gpu_index) const {
  const auto& samples = gpu_util_samples(gpu_index);
  OnlineStats st;
  for (double s : samples) st.add(s);
  return st.cov();
}

double MetricsCollector::pairwise_load_cov(std::size_t i, std::size_t j) const {
  KNOTS_CHECK(i < per_gpu_trace_.size() && j < per_gpu_trace_.size());
  const auto& a = per_gpu_trace_[i];
  const auto& b = per_gpu_trace_[j];
  const std::size_t n = std::min(a.size(), b.size());
  OnlineStats avg;
  for (std::size_t k = 0; k < n; ++k) {
    if (per_gpu_parked_[i][k] || per_gpu_parked_[j][k]) continue;
    const double mean2 = (a[k] + b[k]) / 2.0;
    if (mean2 <= 0) continue;
    // COV of a two-element sample {a, b}: |a-b| / (sqrt(2) * mean).
    const double sd = std::abs(a[k] - b[k]) / std::sqrt(2.0);
    avg.add(sd / mean2);
  }
  return avg.mean();
}

std::size_t MetricsCollector::violation_count() const {
  std::size_t v = 0;
  for (const auto& q : queries_) v += q.violated ? 1 : 0;
  return v;
}

double MetricsCollector::qos_violations_per_kilo() const {
  if (queries_.empty()) return 0.0;
  return 1000.0 * static_cast<double>(violation_count()) /
         static_cast<double>(queries_.size());
}

std::vector<double> MetricsCollector::batch_jct_percentiles(
    std::span<const double> ps) const {
  if (batches_.empty()) return std::vector<double>(ps.size(), 0.0);
  std::vector<double> jcts;
  jcts.reserve(batches_.size());
  for (const auto& b : batches_) jcts.push_back(to_seconds(b.jct));
  return percentiles(jcts, ps);
}

double MetricsCollector::mean_batch_jct_seconds() const {
  if (batches_.empty()) return 0.0;
  double sum = 0;
  for (const auto& b : batches_) sum += to_seconds(b.jct);
  return sum / static_cast<double>(batches_.size());
}

std::vector<double> MetricsCollector::query_latency_percentiles(
    std::span<const double> ps) const {
  if (queries_.empty()) return std::vector<double>(ps.size(), 0.0);
  std::vector<double> lat;
  lat.reserve(queries_.size());
  for (const auto& q : queries_)
    lat.push_back(static_cast<double>(q.latency) / static_cast<double>(kMsec));
  return percentiles(lat, ps);
}

}  // namespace knots::cluster
