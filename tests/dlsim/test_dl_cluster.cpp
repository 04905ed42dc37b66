// DlEngine mechanics on the shared substrate (placement, eviction,
// time-slicing, GPU-device integration) plus the end-to-end policy
// comparisons the report layer builds on.
#include "dlsim/dl_cluster.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "dlsim/dl_policies.hpp"
#include "dlsim/dl_report.hpp"
#include "sched/registry.hpp"

namespace knots::dlsim {
namespace {

DlClusterConfig small_cluster() {
  DlClusterConfig cfg;
  cfg.nodes = 4;
  cfg.gpus_per_node = 4;
  return cfg;
}

DlWorkloadConfig small_workload() {
  // Sized so the 16-GPU test cluster can drain every job (incl. the longest
  // ~10 h trainer) inside the simulator's 3x-window horizon.
  DlWorkloadConfig wl;
  wl.dlt_jobs = 40;
  wl.dli_queries = 150;
  wl.window = 12 * kHour;
  return wl;
}

/// Inert policy for driving the engine's mutation API directly.
class NullDlPolicy final : public DlScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "Null"; }
  void schedule(DlSchedView&) override {}
  SimTime serve_query(DlSchedView&, const DliQuery& query) override {
    return query.base_latency;
  }
};

DltJob job(int id, int gpus) {
  DltJob j;
  j.id = id;
  j.gpus = gpus;
  j.service = kHour;
  return j;
}

DlClusterConfig one_node(int gpus) {
  DlClusterConfig cfg;
  cfg.nodes = 1;
  cfg.gpus_per_node = gpus;
  return cfg;
}

TEST(DlEngine, PlaceAndEvict) {
  NullDlPolicy policy;
  DlEngine eng(one_node(4), policy, 1);
  eng.jobs() = {job(0, 2)};
  EXPECT_EQ(eng.free_gpu_count(), 4);
  EXPECT_TRUE(eng.place(0, 2, 1));
  EXPECT_EQ(eng.free_gpu_count(), 2);
  EXPECT_EQ(eng.jobs()[0].placed_gpus.size(), 2u);
  // The placement claims real GpuDevice memory, not just a counter.
  EXPECT_GT(eng.device(0).totals().memory_provisioned_mb, 0.0);
  eng.evict(0);
  EXPECT_EQ(eng.free_gpu_count(), 4);
  EXPECT_TRUE(eng.jobs()[0].placed_gpus.empty());
  EXPECT_EQ(eng.device(0).totals().residents, 0);
}

TEST(DlEngine, PlaceFailsWhenInsufficientGpus) {
  NullDlPolicy policy;
  DlEngine eng(one_node(2), policy, 1);
  eng.jobs() = {job(0, 4)};
  EXPECT_FALSE(eng.place(0, 4, 1));
  EXPECT_TRUE(eng.jobs()[0].placed_gpus.empty());
  EXPECT_EQ(eng.free_gpu_count(), 2);
}

TEST(DlEngine, MaxShareAllowsTimeSlicing) {
  NullDlPolicy policy;
  DlEngine eng(one_node(1), policy, 1);
  eng.jobs() = {job(0, 1), job(1, 1)};
  EXPECT_TRUE(eng.place(0, 1, 1));
  EXPECT_FALSE(eng.place(1, 1, 1));
  EXPECT_TRUE(eng.place(1, 1, 2));
  EXPECT_EQ(eng.load(0), 2);
  EXPECT_EQ(eng.device(0).totals().residents, 2);
}

TEST(DlEngine, PlaceSkipsOfflineNodes) {
  NullDlPolicy policy;
  DlEngine eng(DlClusterConfig{.nodes = 2, .gpus_per_node = 2}, policy, 1);
  eng.node(0).set_online(false);
  eng.jobs() = {job(0, 2)};
  ASSERT_TRUE(eng.place(0, 2, 1));
  for (int g : eng.jobs()[0].placed_gpus) {
    EXPECT_EQ(eng.node_of(static_cast<std::size_t>(g)).value, 1);
  }
}

TEST(DlEngine, PlaceRespectsEccShrunkCapacity) {
  NullDlPolicy policy;
  DlEngine eng(one_node(2), policy, 1);
  // Retire GPU 0 down to less than one trainer's working set.
  eng.device(0).retire_memory_mb(eng.config().gpu.memory_mb -
                                 eng.config().job_memory_mb / 2);
  eng.jobs() = {job(0, 1)};
  ASSERT_TRUE(eng.place(0, 1, 1));
  EXPECT_EQ(eng.jobs()[0].placed_gpus, std::vector<int>{1});
}

TEST(DlEngine, PlaceVisitsGpusByLoadThenIndex) {
  // place() asks `eligible` about GPUs in (load, index) order — the order a
  // stable sort by load gives — and takes the first `count` it accepts.
  NullDlPolicy policy;
  DlEngine eng(one_node(4), policy, 1);
  eng.jobs() = {job(0, 1), job(1, 1), job(2, 3), job(3, 4), job(4, 5)};
  ASSERT_TRUE(eng.place(0, 1, 1));  // GPU 0
  ASSERT_TRUE(eng.place(1, 1, 1));  // GPU 1
  eng.evict(0);                     // loads: 0, 1, 0, 0
  std::vector<std::size_t> asked;
  const auto accept_all = [&](std::size_t g) {
    asked.push_back(g);
    return true;
  };
  ASSERT_TRUE(eng.place(2, 3, 2, accept_all));
  EXPECT_EQ(asked, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(eng.jobs()[2].placed_gpus, (std::vector<int>{0, 2, 3}));
  eng.evict(2);
  asked.clear();
  ASSERT_TRUE(eng.place(3, 4, 2, accept_all));
  EXPECT_EQ(asked, (std::vector<std::size_t>{0, 2, 3, 1}));
  // Five GPUs below max_share do not exist: no GPU is even asked about.
  eng.evict(3);
  asked.clear();
  EXPECT_FALSE(eng.place(4, 5, 2, accept_all));
  EXPECT_TRUE(asked.empty());
  EXPECT_EQ(eng.free_gpu_count(), 3);
}

TEST(DlEngineDeath, GpuCountPastIntAborts) {
  // GPUs are indexed by int; a topology past that aborts before anything
  // is allocated per GPU.
  NullDlPolicy policy;
  EXPECT_DEATH(DlEngine(DlClusterConfig{.nodes = 100000,
                                        .gpus_per_node = 100000},
                        policy, 1),
               "fit an int");
}

TEST(DlRegistry, DlPoliciesResolveByName) {
  register_dl_schedulers();
  for (const auto& name : dl_policy_names()) {
    EXPECT_TRUE(sched::scheduler_registered(name)) << name;
  }
  EXPECT_EQ(sched::make_scheduler("resag")->name(), "Res-Ag");
  EXPECT_EQ(sched::make_scheduler("gandiva")->name(), "Gandiva");
  EXPECT_EQ(sched::make_scheduler("tiresias")->name(), "Tiresias");
  EXPECT_EQ(sched::make_scheduler("cbp-pp")->name(), "CBP+PP");
  // Pod schedulers share the same registry namespace.
  EXPECT_TRUE(sched::scheduler_registered("PP"));
}

class EveryDlPolicy : public ::testing::TestWithParam<const char*> {};

TEST_P(EveryDlPolicy, AllJobsCompleteAndStatsConsistent) {
  const auto result =
      run_dl_simulation(GetParam(), small_cluster(), small_workload(), 5);
  EXPECT_EQ(result.dlt_completed, result.dlt_total);
  EXPECT_EQ(result.jct_hours.size(), result.dlt_completed);
  EXPECT_GT(result.avg_jct_h, 0);
  EXPECT_LE(result.median_jct_h, result.p99_jct_h);
  EXPECT_EQ(result.queries.size(), 150u);
  std::size_t violated = 0;
  for (const auto& q : result.queries) violated += q.violated ? 1 : 0;
  EXPECT_EQ(violated, result.dli_violations);
  // Substrate accounting: the run audited itself and burned real power.
  EXPECT_GT(result.invariant_checks, 0u);
  EXPECT_EQ(result.invariant_violations, 0u);
  EXPECT_GT(result.mean_power_watts, 0.0);
  EXPECT_GT(result.energy_joules, 0.0);
  EXPECT_EQ(result.node_crashes, 0u);
  EXPECT_EQ(result.jobs_evicted, 0u);
}

TEST_P(EveryDlPolicy, Deterministic) {
  const auto a =
      run_dl_simulation(GetParam(), small_cluster(), small_workload(), 9);
  const auto b =
      run_dl_simulation(GetParam(), small_cluster(), small_workload(), 9);
  EXPECT_EQ(a.avg_jct_h, b.avg_jct_h);
  EXPECT_EQ(a.dli_violations, b.dli_violations);
  EXPECT_EQ(a.crash_restarts, b.crash_restarts);
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.digest_events, b.digest_events);
}

INSTANTIATE_TEST_SUITE_P(Policies, EveryDlPolicy,
                         ::testing::Values("resag", "gandiva", "tiresias",
                                           "cbp-pp"),
                         [](const auto& param_info) {
                           std::string n = param_info.param;
                           std::erase(n, '-');
                           return n;
                         });

TEST(DlComparison, PaperOrderingHolds) {
  // Fig 12 / Table IV qualitative shape at reduced scale.
  DlClusterConfig cfg;
  cfg.nodes = 8;
  cfg.gpus_per_node = 8;
  DlWorkloadConfig wl;
  wl.dlt_jobs = 150;
  wl.dli_queries = 400;
  wl.window = 6 * kHour;
  const auto results = run_all_policies(cfg, wl, 42);
  ASSERT_EQ(results.size(), 4u);
  const auto& resag = results[0];
  const auto& gandiva = results[1];
  const auto& tiresias = results[2];
  const auto& cbp_pp = results[3];
  EXPECT_EQ(cbp_pp.policy, "CBP+PP");
  // CBP+PP has the fewest DLI violations, Res-Ag the most.
  EXPECT_LT(cbp_pp.violations_per_hour, tiresias.violations_per_hour);
  EXPECT_LT(tiresias.violations_per_hour, resag.violations_per_hour);
  EXPECT_LT(gandiva.violations_per_hour, resag.violations_per_hour);
  // Only Res-Ag crashes trainers; only Gandiva migrates; only Tiresias
  // preempts.
  EXPECT_GT(resag.crash_restarts, 0u);
  EXPECT_EQ(cbp_pp.crash_restarts, 0u);
  EXPECT_GT(gandiva.migrations, 0u);
  EXPECT_GT(tiresias.preemptions, 0u);
  // JCT: CBP+PP at least matches every baseline on average.
  EXPECT_LE(cbp_pp.avg_jct_h, resag.avg_jct_h);
  EXPECT_LE(cbp_pp.avg_jct_h, gandiva.avg_jct_h);
  EXPECT_LE(cbp_pp.avg_jct_h, tiresias.avg_jct_h * 1.05);
}

TEST(DlReport, NormalizedRatiosAndCdfs) {
  DlClusterConfig cfg;
  cfg.nodes = 4;
  cfg.gpus_per_node = 4;
  const auto results = run_all_policies(cfg, small_workload(), 3);
  const auto ratios = normalized_jct(results);
  ASSERT_EQ(ratios.size(), 3u);  // everyone except CBP+PP
  for (const auto& r : ratios) {
    EXPECT_GT(r.avg, 0.3);
    EXPECT_LT(r.avg, 5.0);
  }
  const auto cdfs = jct_cdfs(results, 20);
  ASSERT_EQ(cdfs.size(), 4u);
  for (const auto& cdf : cdfs) {
    ASSERT_EQ(cdf.hours.size(), 21u);
    // CDF is monotone and ends at 100 %.
    for (std::size_t i = 1; i < cdf.fraction.size(); ++i) {
      EXPECT_GE(cdf.fraction[i], cdf.fraction[i - 1]);
    }
    EXPECT_DOUBLE_EQ(cdf.fraction.back(), 100.0);
  }
}

}  // namespace
}  // namespace knots::dlsim
