// Integration tests of the Cluster engine with each scheduling policy.
#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "workload/load_generator.hpp"

namespace knots::cluster {
namespace {

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.seed = 7;
  return cfg;
}

std::vector<workload::PodSpec> small_workload(int mix = 1,
                                              SimTime duration = 30 * kSec) {
  workload::LoadGenConfig wl;
  wl.duration = duration;
  return workload::generate_workload(workload::app_mix(mix), wl, Rng(5));
}

class EveryScheduler
    : public ::testing::TestWithParam<sched::SchedulerKind> {};

TEST_P(EveryScheduler, AllPodsEventuallyComplete) {
  auto scheduler = sched::make_scheduler(GetParam());
  Cluster cl(small_cluster(), *scheduler);
  auto pods = small_workload();
  const std::size_t total = pods.size();
  ASSERT_GT(total, 10u);
  cl.load(std::move(pods));
  cl.run();
  EXPECT_EQ(cl.completed_count(), total);
  EXPECT_TRUE(cl.pending().empty());
  // Every completed pod is terminal and every record was made exactly once.
  std::size_t lc = 0, batch = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const auto& pod = cl.pod(PodId{static_cast<std::int32_t>(i)});
    EXPECT_TRUE(pod.terminal());
    (pod.latency_critical() ? lc : batch)++;
  }
  EXPECT_EQ(cl.metrics().query_count(), lc);
  EXPECT_EQ(cl.metrics().batches().size(), batch);
}

TEST_P(EveryScheduler, EnergyAndPowerPositive) {
  auto scheduler = sched::make_scheduler(GetParam());
  Cluster cl(small_cluster(), *scheduler);
  cl.load(small_workload());
  cl.run();
  EXPECT_GT(cl.metrics().energy_joules(), 0);
  EXPECT_GT(cl.metrics().mean_power_watts(), 0);
}

TEST_P(EveryScheduler, DeterministicAcrossRuns) {
  auto run_once = [&] {
    auto scheduler = sched::make_scheduler(GetParam());
    Cluster cl(small_cluster(), *scheduler);
    cl.load(small_workload());
    cl.run();
    return std::make_tuple(cl.metrics().energy_joules(),
                           cl.metrics().violation_count(),
                           cl.metrics().crash_count(), cl.now());
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, EveryScheduler,
    ::testing::ValuesIn(std::vector<sched::SchedulerKind>(
        sched::kAllSchedulers.begin(), sched::kAllSchedulers.end())),
    [](const auto& param_info) {
      std::string name = sched::to_string(param_info.param);
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

TEST(Cluster, PlacementApiBasics) {
  auto scheduler = sched::make_scheduler(sched::SchedulerKind::kUniform);
  ClusterConfig cfg = small_cluster();
  Cluster cl(cfg, *scheduler);

  workload::PodSpec spec;
  spec.id = PodId{0};
  spec.app = "lud";
  spec.arrival = 0;
  spec.profile = workload::AppProfile(
      "p", {{100 * kMsec, gpu::Usage{0.5, 500, 0, 0}}});
  spec.requested_mb = 1000;
  cl.load({spec});

  EXPECT_EQ(cl.gpu_count(), 4u);
  EXPECT_EQ(cl.all_gpus().size(), 4u);
  // Pod not yet arrived in the queue: direct place fails gracefully.
  EXPECT_FALSE(cl.place(PodId{0}, GpuId{0}, 500));
  cl.run();
  EXPECT_EQ(cl.completed_count(), 1u);
}

TEST(Cluster, LoadQueuesOneArrival) {
  // load() replays the arrivals with one queued, however many pods it has.
  auto scheduler = sched::make_scheduler(sched::SchedulerKind::kUniform);
  Cluster cl(small_cluster(), *scheduler);
  auto pods = small_workload();
  ASSERT_GT(pods.size(), 10u);
  cl.load(std::move(pods));
  EXPECT_LE(cl.engine().pending_events(), 1u);
}

TEST(Cluster, LoadReplaysArrivalsInArrivalThenIdOrder) {
  // Ids out of arrival order, and arrival times shared by several pods:
  // pods join the queue by arrival, equal arrivals by id — the order
  // scheduling each pod's arrival by id pops them in.
  auto scheduler = sched::make_scheduler(sched::SchedulerKind::kUniform);
  Cluster cl(small_cluster(), *scheduler);
  obs::TraceSink trace;
  cl.set_trace_sink(&trace);
  const std::vector<SimTime> arrivals{3 * kSec, kSec, kSec, 0,
                                      2 * kSec, kSec, 0,   3 * kSec};
  std::vector<workload::PodSpec> specs;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    workload::PodSpec spec;
    spec.id = PodId{static_cast<std::int32_t>(i)};
    spec.app = "lud";
    spec.arrival = arrivals[i];
    spec.profile = workload::AppProfile(
        "p", {{100 * kMsec, gpu::Usage{0.2, 300, 0, 0}}});
    spec.requested_mb = 400;
    specs.push_back(spec);
  }
  // Handed over in neither id nor arrival order.
  std::reverse(specs.begin(), specs.end());
  cl.load(std::move(specs));
  cl.run();

  std::vector<std::int32_t> submitted;
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.kind == obs::EventKind::kSubmit) submitted.push_back(e.a);
  }
  EXPECT_EQ(submitted, (std::vector<std::int32_t>{3, 6, 1, 2, 5, 4, 0, 7}));
  EXPECT_EQ(cl.completed_count(), arrivals.size());
}

TEST(Cluster, ColdStartOncePerImagePerNode) {
  // Two identical batch pods back to back on one node: the second must
  // start warm (much shorter time-to-running).
  auto scheduler = sched::make_scheduler(sched::SchedulerKind::kUniform);
  ClusterConfig cfg = small_cluster();
  cfg.nodes = 1;
  Cluster cl(cfg, *scheduler);

  workload::AppProfile prof("p", {{200 * kMsec, gpu::Usage{0.5, 500, 0, 0}}});
  workload::PodSpec a;
  a.id = PodId{0};
  a.app = "kmeans";
  a.arrival = 0;
  a.profile = prof;
  a.requested_mb = 600;
  workload::PodSpec b = a;
  b.id = PodId{1};
  b.arrival = 1 * kSec;
  cl.load({a, b});
  cl.run();

  const auto& jcts = cl.metrics().batches();
  ASSERT_EQ(jcts.size(), 2u);
  // First pays ~2 s cold start; second only the warm start.
  EXPECT_GT(jcts[0].jct, kColdStart);
  EXPECT_LT(jcts[1].jct, kColdStart);
}

TEST(Cluster, ParkRequiresEmptyGpu) {
  auto scheduler = sched::make_scheduler(sched::SchedulerKind::kCbp);
  Cluster cl(small_cluster(), *scheduler);
  cl.load({});
  EXPECT_TRUE(cl.park(GpuId{0}));
  EXPECT_TRUE(cl.device(GpuId{0}).parked());
}

TEST(Cluster, CapacityViolationCrashesAndRelaunches) {
  // Two TF-greedy pods forced onto one GPU must produce a crash, and both
  // must still complete eventually.
  auto scheduler =
      sched::make_scheduler(sched::SchedulerKind::kResourceAgnostic);
  ClusterConfig cfg = small_cluster();
  cfg.nodes = 1;  // only one GPU: Res-Ag has nowhere else to go
  Cluster cl(cfg, *scheduler);

  workload::LoadGenConfig wl;
  wl.duration = 5 * kSec;
  auto pods = workload::generate_workload(workload::app_mix(1), wl, Rng(3));
  // Keep only inference pods (whole-device TF earmarks).
  std::erase_if(pods, [](const auto& p) {
    return p.klass != workload::PodClass::kLatencyCritical;
  });
  ASSERT_GE(pods.size(), 4u);
  pods.resize(6);
  for (std::size_t i = 0; i < pods.size(); ++i) {
    pods[i].id = PodId{static_cast<std::int32_t>(i)};
  }
  const std::size_t total = pods.size();
  cl.load(std::move(pods));
  cl.run();
  EXPECT_GT(cl.metrics().crash_count(), 0u);
  EXPECT_EQ(cl.completed_count(), total);
}

TEST(Cluster, ProfileStoreLearnsImages) {
  auto scheduler = sched::make_scheduler(sched::SchedulerKind::kPeakPrediction);
  Cluster cl(small_cluster(), *scheduler);
  cl.load(small_workload());
  // Every pod's key is interned at load; no image has a run yet.
  ASSERT_GT(cl.profiles().size(), 0u);
  EXPECT_EQ(cl.profiles().find(cl.pod(PodId{0}).image()), nullptr);
  cl.run();
  const auto* prof = cl.profiles().find(cl.pod(PodId{0}).image());
  ASSERT_NE(prof, nullptr);
  EXPECT_GT(prof->observed_runs, 0);
}

TEST(Cluster, UtilizationAwareSchedulersAreCrashFree) {
  // The paper's core safety claim: CBP/PP resize without capacity
  // violations (§IV-C "ensuring crash-free dynamic container resizing").
  for (auto kind : {sched::SchedulerKind::kCbp,
                    sched::SchedulerKind::kPeakPrediction}) {
    auto scheduler = sched::make_scheduler(kind);
    Cluster cl(small_cluster(), *scheduler);
    cl.load(small_workload(1, 60 * kSec));
    cl.run();
    EXPECT_EQ(cl.metrics().crash_count(), 0u) << sched::to_string(kind);
  }
}

TEST(Cluster, UniformKeepsGpusExclusive) {
  auto scheduler = sched::make_scheduler(sched::SchedulerKind::kUniform);
  ClusterConfig cfg = small_cluster();
  Cluster cl(cfg, *scheduler);
  cl.load(small_workload(2, 20 * kSec));
  // Run in small increments is not exposed; instead verify post-hoc: with
  // exclusive placement there can never be a co-location crash.
  cl.run();
  EXPECT_EQ(cl.metrics().crash_count(), 0u);
}

}  // namespace
}  // namespace knots::cluster
