// Experiment metrics collector: everything Figures 6–11 read.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/percentile.hpp"
#include "core/types.hpp"

namespace knots::cluster {

/// One completed latency-critical query.
struct QueryRecord {
  SimTime arrival;
  SimTime latency;   ///< End-to-end (queue + start + transfer + compute).
  bool violated;     ///< latency > QoS threshold.
};

/// One completed batch job.
struct BatchRecord {
  SimTime arrival;
  SimTime jct;       ///< Completion − arrival.
  int crashes;
};

class MetricsCollector {
 public:
  explicit MetricsCollector(std::size_t gpu_count);

  // -- Recording (called by the Cluster) --
  void sample_gpu_util(std::size_t gpu_index, double sm_util, bool parked);
  void add_power_sample(double cluster_watts);
  void add_energy(double joules) { energy_joules_ += joules; }
  void record_query(const QueryRecord& q) { queries_.push_back(q); }
  void record_batch(const BatchRecord& b) { batches_.push_back(b); }
  void record_crash() { ++crashes_; }

  // -- Figure data --
  [[nodiscard]] std::size_t gpu_count() const { return per_gpu_util_.size(); }

  /// Per-GPU utilization samples in percent (parked samples excluded).
  [[nodiscard]] const std::vector<double>& gpu_util_samples(
      std::size_t gpu_index) const;

  /// Percentiles of one GPU's active utilization, in percent (Fig 6/8
  /// bars), with one shared sort. Zeros when no samples.
  [[nodiscard]] std::vector<double> gpu_util_percentiles(
      std::size_t gpu_index, std::span<const double> ps) const;

  /// Cluster-wide utilization percentiles pooling active-GPU samples
  /// (Fig 9): one pooling pass + one sort.
  [[nodiscard]] std::vector<double> cluster_util_percentiles(
      std::span<const double> ps) const;

  /// Coefficient of variation of one GPU's active utilization (Fig 7).
  [[nodiscard]] double gpu_util_cov(std::size_t gpu_index) const;

  /// Mean pairwise COV of two GPUs' concurrent loads (Fig 11b): for each
  /// sample k, COV of the pair {u_i(k), u_j(k)}, averaged over samples where
  /// both GPUs were active.
  [[nodiscard]] double pairwise_load_cov(std::size_t i, std::size_t j) const;

  [[nodiscard]] const std::vector<QueryRecord>& queries() const {
    return queries_;
  }
  [[nodiscard]] const std::vector<BatchRecord>& batches() const {
    return batches_;
  }

  /// QoS violations per 1000 inference queries (Fig 10a bars).
  [[nodiscard]] double qos_violations_per_kilo() const;
  [[nodiscard]] std::size_t query_count() const { return queries_.size(); }
  [[nodiscard]] std::size_t violation_count() const;

  [[nodiscard]] double mean_power_watts() const { return power_.mean(); }
  [[nodiscard]] double energy_joules() const { return energy_joules_; }
  [[nodiscard]] std::size_t crash_count() const { return crashes_; }

  /// Batch JCT percentiles in seconds: one materialization + one sort for
  /// all `ps`.
  [[nodiscard]] std::vector<double> batch_jct_percentiles(
      std::span<const double> ps) const;
  [[nodiscard]] double mean_batch_jct_seconds() const;
  /// LC end-to-end latency percentiles in milliseconds: one
  /// materialization + one sort for all `ps`.
  [[nodiscard]] std::vector<double> query_latency_percentiles(
      std::span<const double> ps) const;

 private:
  // Per GPU: utilization% samples while active, and the aligned full trace
  // (including parked ticks, flagged) for pairwise statistics.
  std::vector<std::vector<double>> per_gpu_util_;
  std::vector<std::vector<double>> per_gpu_trace_;
  std::vector<std::vector<bool>> per_gpu_parked_;
  OnlineStats power_;
  double energy_joules_ = 0;
  std::vector<QueryRecord> queries_;
  std::vector<BatchRecord> batches_;
  std::size_t crashes_ = 0;
};

}  // namespace knots::cluster
