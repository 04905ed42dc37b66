// Field-by-field equality of two experiment reports: the check every
// replay law (same config and seed ⇒ same run) is phrased in.
#pragma once

#include <gtest/gtest.h>

#include "knots/experiment.hpp"

namespace knots {

inline void expect_identical(const ExperimentReport& a,
                             const ExperimentReport& b) {
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.mix_id, b.mix_id);
  ASSERT_EQ(a.per_gpu.size(), b.per_gpu.size());
  for (std::size_t i = 0; i < a.per_gpu.size(); ++i) {
    EXPECT_EQ(a.per_gpu[i].p50, b.per_gpu[i].p50) << "gpu " << i;
    EXPECT_EQ(a.per_gpu[i].p90, b.per_gpu[i].p90) << "gpu " << i;
    EXPECT_EQ(a.per_gpu[i].p99, b.per_gpu[i].p99) << "gpu " << i;
    EXPECT_EQ(a.per_gpu[i].max, b.per_gpu[i].max) << "gpu " << i;
  }
  EXPECT_EQ(a.cluster_wide.p50, b.cluster_wide.p50);
  EXPECT_EQ(a.cluster_wide.p90, b.cluster_wide.p90);
  EXPECT_EQ(a.cluster_wide.p99, b.cluster_wide.p99);
  EXPECT_EQ(a.cluster_wide.max, b.cluster_wide.max);
  EXPECT_EQ(a.per_gpu_cov, b.per_gpu_cov);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.qos_violations, b.qos_violations);
  EXPECT_EQ(a.violations_per_kilo, b.violations_per_kilo);
  EXPECT_EQ(a.mean_power_watts, b.mean_power_watts);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.mean_jct_s, b.mean_jct_s);
  EXPECT_EQ(a.median_jct_s, b.median_jct_s);
  EXPECT_EQ(a.p99_jct_s, b.p99_jct_s);
  EXPECT_EQ(a.lc_p50_ms, b.lc_p50_ms);
  EXPECT_EQ(a.lc_p99_ms, b.lc_p99_ms);
  EXPECT_EQ(a.pods_total, b.pods_total);
  EXPECT_EQ(a.pods_completed, b.pods_completed);
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.invariant_checks, b.invariant_checks);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
}

}  // namespace knots
