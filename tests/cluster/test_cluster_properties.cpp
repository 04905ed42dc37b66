// Property sweeps of the cluster engine across cluster sizes, seeds and
// schedulers: conservation, safety and accounting invariants that must hold
// for every configuration.
#include <gtest/gtest.h>

#include <tuple>

#include "cluster/cluster.hpp"
#include "sched/registry.hpp"
#include "workload/load_generator.hpp"

namespace knots::cluster {
namespace {

using Param = std::tuple<int /*nodes*/, std::uint64_t /*seed*/,
                         sched::SchedulerKind>;

class ClusterProperties : public ::testing::TestWithParam<Param> {};

TEST_P(ClusterProperties, ConservationAndAccounting) {
  const auto [nodes, seed, kind] = GetParam();
  auto scheduler = sched::make_scheduler(kind);
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.seed = seed;
  Cluster cl(cfg, *scheduler);

  workload::LoadGenConfig wl;
  wl.duration = 25 * kSec;
  auto pods = workload::generate_workload(workload::app_mix(2), wl, Rng(seed));
  const std::size_t total = pods.size();
  std::size_t lc_total = 0;
  for (const auto& p : pods) {
    lc_total += p.klass == workload::PodClass::kLatencyCritical ? 1 : 0;
  }
  cl.load(std::move(pods));
  cl.run();

  // Conservation: every pod completes exactly once; records partition.
  EXPECT_EQ(cl.completed_count(), total);
  EXPECT_EQ(cl.metrics().query_count() + cl.metrics().batches().size(), total);
  EXPECT_EQ(cl.metrics().query_count(), lc_total);

  // No pod remains resident on any device.
  for (GpuId gpu : cl.all_gpus()) {
    EXPECT_EQ(cl.device(gpu).totals().residents, 0);
    EXPECT_NEAR(cl.device(gpu).totals().memory_used_mb, 0.0, 1e-6);
  }

  // Accounting sanity.
  EXPECT_GT(cl.metrics().energy_joules(), 0.0);
  const std::vector<double> ps = {0.0, 50.0, 99.0, 100.0};
  for (std::size_t g = 0; g < cl.metrics().gpu_count(); ++g) {
    for (double u : cl.metrics().gpu_util_percentiles(g, ps)) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 100.0);
    }
  }

  // Latency-critical records all have non-negative latency >= compute time.
  for (const auto& q : cl.metrics().queries()) {
    EXPECT_GE(q.latency, 0);
  }
  // JCTs are positive and percentile-ordered.
  const std::vector<double> median_p99 = {50.0, 99.0};
  const auto jct = cl.metrics().batch_jct_percentiles(median_p99);
  EXPECT_LE(jct[0], jct[1] + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClusterProperties,
    ::testing::Combine(
        ::testing::Values(2, 5, 10),
        ::testing::Values<std::uint64_t>(1u, 77u),
        ::testing::Values(sched::SchedulerKind::kUniform,
                          sched::SchedulerKind::kResourceAgnostic,
                          sched::SchedulerKind::kCbp,
                          sched::SchedulerKind::kPeakPrediction)),
    [](const auto& param_info) {
      auto name = sched::to_string(std::get<2>(param_info.param)) + "_n" +
                  std::to_string(std::get<0>(param_info.param)) + "_s" +
                  std::to_string(std::get<1>(param_info.param));
      std::erase_if(name, [](char c) { return !std::isalnum(c) && c != '_'; });
      return name;
    });

class MultiGpuNodes : public ::testing::TestWithParam<int> {};

TEST_P(MultiGpuNodes, ClusterSupportsMultipleGpusPerNode) {
  const int gpus = GetParam();
  auto scheduler = sched::make_scheduler(sched::SchedulerKind::kPeakPrediction);
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.gpus_per_node = gpus;
  Cluster cl(cfg, *scheduler);
  workload::LoadGenConfig wl;
  wl.duration = 15 * kSec;
  auto pods = workload::generate_workload(workload::app_mix(2), wl, Rng(4));
  const std::size_t total = pods.size();
  cl.load(std::move(pods));
  cl.run();
  EXPECT_EQ(cl.gpu_count(), static_cast<std::size_t>(2 * gpus));
  EXPECT_EQ(cl.completed_count(), total);
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, MultiGpuNodes, ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace knots::cluster
