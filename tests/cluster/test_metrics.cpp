#include "cluster/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace knots::cluster {
namespace {

TEST(Metrics, GpuUtilPercentilesExcludeInactiveSamples) {
  MetricsCollector m(2);
  for (int i = 0; i < 10; ++i) {
    m.sample_gpu_util(0, 0.5, /*inactive=*/false);
    m.sample_gpu_util(0, 0.0, /*inactive=*/true);  // parked/empty: excluded
  }
  EXPECT_EQ(m.gpu_util_samples(0).size(), 10u);
  const std::vector<double> ps = {50, 100};
  const auto busy = m.gpu_util_percentiles(0, ps);
  EXPECT_DOUBLE_EQ(busy[0], 50.0);
  EXPECT_DOUBLE_EQ(busy[1], 50.0);
  // GPU 1 never sampled active.
  EXPECT_EQ(m.gpu_util_percentiles(1, ps), std::vector<double>(2, 0.0));
}

TEST(Metrics, ClusterPercentilePoolsGpus) {
  MetricsCollector m(2);
  for (int i = 0; i < 100; ++i) {
    m.sample_gpu_util(0, 0.2, false);
    m.sample_gpu_util(1, 0.8, false);
  }
  const std::vector<double> ps = {100, 0, 50};
  const auto pooled = m.cluster_util_percentiles(ps);
  EXPECT_DOUBLE_EQ(pooled[0], 80.0);
  EXPECT_DOUBLE_EQ(pooled[1], 20.0);
  EXPECT_DOUBLE_EQ(pooled[2], 50.0);
}

TEST(Metrics, GpuCovMatchesDefinition) {
  MetricsCollector m(1);
  m.sample_gpu_util(0, 0.2, false);
  m.sample_gpu_util(0, 0.4, false);
  m.sample_gpu_util(0, 0.6, false);
  OnlineStats ref;
  for (double v : {20.0, 40.0, 60.0}) ref.add(v);
  EXPECT_NEAR(m.gpu_util_cov(0), ref.cov(), 1e-12);
}

TEST(Metrics, PairwiseCovZeroForBalancedLoads) {
  MetricsCollector m(2);
  for (int i = 0; i < 50; ++i) {
    m.sample_gpu_util(0, 0.5, false);
    m.sample_gpu_util(1, 0.5, false);
  }
  EXPECT_NEAR(m.pairwise_load_cov(0, 1), 0.0, 1e-12);
}

TEST(Metrics, PairwiseCovLargeForImbalance) {
  MetricsCollector m(2);
  for (int i = 0; i < 50; ++i) {
    m.sample_gpu_util(0, 1.0, false);
    m.sample_gpu_util(1, 0.1, false);
  }
  EXPECT_GT(m.pairwise_load_cov(0, 1), 0.7);
}

TEST(Metrics, PairwiseCovSkipsInactiveTicks) {
  MetricsCollector m(2);
  m.sample_gpu_util(0, 1.0, false);
  m.sample_gpu_util(1, 0.0, true);  // parked: skipped
  m.sample_gpu_util(0, 0.5, false);
  m.sample_gpu_util(1, 0.5, false);
  EXPECT_NEAR(m.pairwise_load_cov(0, 1), 0.0, 1e-12);
}

TEST(Metrics, QosAccounting) {
  MetricsCollector m(1);
  m.record_query({0, 100 * kMsec, false});
  m.record_query({0, 200 * kMsec, true});
  m.record_query({0, 120 * kMsec, false});
  m.record_query({0, 500 * kMsec, true});
  EXPECT_EQ(m.query_count(), 4u);
  EXPECT_EQ(m.violation_count(), 2u);
  EXPECT_DOUBLE_EQ(m.qos_violations_per_kilo(), 500.0);
  const std::vector<double> p100 = {100};
  EXPECT_DOUBLE_EQ(m.query_latency_percentiles(p100)[0], 500.0);
}

TEST(Metrics, QosEmptyIsZero) {
  MetricsCollector m(1);
  EXPECT_DOUBLE_EQ(m.qos_violations_per_kilo(), 0.0);
  const std::vector<double> p50 = {50};
  EXPECT_DOUBLE_EQ(m.batch_jct_percentiles(p50)[0], 0.0);
  EXPECT_DOUBLE_EQ(m.query_latency_percentiles(p50)[0], 0.0);
  EXPECT_DOUBLE_EQ(m.mean_batch_jct_seconds(), 0.0);
}

TEST(Metrics, BatchJctStats) {
  MetricsCollector m(1);
  m.record_batch({0, 10 * kSec, 0});
  m.record_batch({0, 20 * kSec, 1});
  m.record_batch({0, 30 * kSec, 0});
  EXPECT_DOUBLE_EQ(m.mean_batch_jct_seconds(), 20.0);
  const std::vector<double> ps = {50, 100};
  const auto jct = m.batch_jct_percentiles(ps);
  EXPECT_DOUBLE_EQ(jct[0], 20.0);
  EXPECT_DOUBLE_EQ(jct[1], 30.0);
}

TEST(Metrics, EnergyAndPowerAccumulate) {
  MetricsCollector m(1);
  m.add_power_sample(100);
  m.add_power_sample(300);
  m.add_energy(50);
  m.add_energy(25);
  EXPECT_DOUBLE_EQ(m.mean_power_watts(), 200.0);
  EXPECT_DOUBLE_EQ(m.energy_joules(), 75.0);
  m.record_crash();
  m.record_crash();
  EXPECT_EQ(m.crash_count(), 2u);
}

}  // namespace
}  // namespace knots::cluster
