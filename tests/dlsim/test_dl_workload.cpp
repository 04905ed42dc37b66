#include "dlsim/dl_workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace knots::dlsim {
namespace {

DlWorkloadConfig small() {
  DlWorkloadConfig cfg;
  cfg.dlt_jobs = 100;
  cfg.dli_queries = 300;
  return cfg;
}

TEST(DlWorkload, CountsMatchConfig) {
  const auto wl = generate_dl_workload(small(), Rng(1));
  EXPECT_EQ(wl.jobs.size(), 100u);
  EXPECT_EQ(wl.queries.size(), 300u);
  EXPECT_EQ(wl.horizon, 12 * kHour);
}

TEST(DlWorkload, SortedByArrivalWithDenseIds) {
  const auto wl = generate_dl_workload(small(), Rng(2));
  for (std::size_t i = 0; i < wl.jobs.size(); ++i) {
    EXPECT_EQ(wl.jobs[i].id, static_cast<int>(i));
    if (i > 0) {
      EXPECT_GE(wl.jobs[i].arrival, wl.jobs[i - 1].arrival);
    }
  }
  EXPECT_TRUE(std::is_sorted(
      wl.queries.begin(), wl.queries.end(),
      [](const auto& a, const auto& b) { return a.arrival < b.arrival; }));
}

TEST(DlWorkload, GangSizesValidAndSkewedToOne) {
  const auto wl = generate_dl_workload(
      DlWorkloadConfig{2000, 10, 12 * kHour, 1}, Rng(3));
  int singles = 0;
  for (const auto& job : wl.jobs) {
    EXPECT_TRUE(job.gpus == 1 || job.gpus == 2 || job.gpus == 4 ||
                job.gpus == 8);
    singles += job.gpus == 1 ? 1 : 0;
  }
  EXPECT_GT(singles, 1000);
}

TEST(DlWorkload, ServiceTimesWithinMinutesToHours) {
  const auto wl = generate_dl_workload(small(), Rng(4));
  for (const auto& job : wl.jobs) {
    EXPECT_GE(job.service, 5 * kMinute);
    EXPECT_LE(job.service, 600 * kMinute);
    EXPECT_GE(job.lull_fraction, 0.10);
    EXPECT_LE(job.lull_fraction, 0.25);
  }
}

TEST(DlWorkload, JobsArriveInFirst80Percent) {
  const auto wl = generate_dl_workload(small(), Rng(5));
  for (const auto& job : wl.jobs) {
    EXPECT_LE(job.arrival, 8 * wl.horizon / 10);
  }
}

TEST(DlWorkload, QueryLatenciesAndQos) {
  const auto wl = generate_dl_workload(small(), Rng(6));
  for (const auto& q : wl.queries) {
    EXPECT_GE(q.base_latency, 10 * kMsec);  // §V-C: 10–50 ms
    EXPECT_LE(q.base_latency, 50 * kMsec);
    EXPECT_EQ(q.qos, 150 * kMsec);
  }
}

TEST(DlWorkload, MixShiftsServiceDistribution) {
  auto mean_service = [](int mix) {
    DlWorkloadConfig cfg;
    cfg.dlt_jobs = 2000;
    cfg.dli_queries = 10;
    cfg.mix_id = mix;
    const auto wl = generate_dl_workload(cfg, Rng(7));
    double sum = 0;
    for (const auto& j : wl.jobs) sum += static_cast<double>(j.service);
    return sum / static_cast<double>(wl.jobs.size());
  };
  EXPECT_GT(mean_service(1), mean_service(2));
  EXPECT_GT(mean_service(2), mean_service(3));
}

TEST(DlWorkload, Deterministic) {
  const auto a = generate_dl_workload(small(), Rng(9));
  const auto b = generate_dl_workload(small(), Rng(9));
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
    EXPECT_EQ(a.jobs[i].service, b.jobs[i].service);
    EXPECT_EQ(a.jobs[i].gpus, b.jobs[i].gpus);
  }
}

}  // namespace
}  // namespace knots::dlsim
