// Unit-level behaviour of the individual DL policies, driven through the
// DlEngine/DlSchedView substrate they now run on.
#include <gtest/gtest.h>

#include "dlsim/dl_cluster.hpp"
#include "dlsim/dl_policies.hpp"
#include "dlsim/dl_workload.hpp"

namespace knots::dlsim {
namespace {

DlClusterConfig tiny_cfg(int gpus = 4) {
  DlClusterConfig cfg;
  cfg.nodes = 1;
  cfg.gpus_per_node = gpus;
  return cfg;
}

DltJob job(int id, int gpus, SimTime service, SimTime arrival = 0) {
  DltJob j;
  j.id = id;
  j.gpus = gpus;
  j.service = service;
  j.arrival = arrival;
  return j;
}

TEST(ResAgPolicy, FcfsHeadOfLineBlocks) {
  ResAgDlPolicy policy;
  DlEngine eng(tiny_cfg(4), policy, 1);
  eng.jobs() = {job(0, 8, kHour), job(1, 1, kHour)};
  eng.pending() = {0, 1};
  policy.schedule(eng.view());
  // The 8-GPU head cannot fit on 4 GPUs and must block the 1-GPU job.
  EXPECT_FALSE(eng.jobs()[0].running);
  EXPECT_FALSE(eng.jobs()[1].running);
  EXPECT_EQ(eng.pending().size(), 2u);
}

TEST(ResAgPolicy, BusyGpuQueryMayCrashTrainer) {
  DlClusterConfig cfg = tiny_cfg(1);
  cfg.crash_prob = 1.0;  // force the TF-greedy crash path
  ResAgDlPolicy policy;
  DlEngine eng(cfg, policy, 2);
  eng.jobs() = {job(0, 1, kHour)};
  eng.pending() = {0};
  policy.schedule(eng.view());
  ASSERT_TRUE(eng.jobs()[0].running);
  DliQuery q;
  q.base_latency = 20 * kMsec;
  q.qos = 150 * kMsec;
  const SimTime latency = policy.serve_query(eng.view(), q);
  EXPECT_GT(latency, q.base_latency);
  EXPECT_EQ(policy.crash_restarts(), 1u);
  EXPECT_FALSE(eng.jobs()[0].running);
  EXPECT_EQ(eng.pending().size(), 1u);  // victim requeued at the back
  EXPECT_EQ(eng.jobs()[0].restarts, 1);
  // The crash released the GpuDevice claim too.
  EXPECT_EQ(eng.device(0).totals().residents, 0);
}

TEST(ResAgPolicy, FreeGpuQueryRunsNatively) {
  ResAgDlPolicy policy;
  DlEngine eng(tiny_cfg(2), policy, 3);
  DliQuery q;
  q.base_latency = 30 * kMsec;
  EXPECT_EQ(policy.serve_query(eng.view(), q), 30 * kMsec);
}

TEST(GandivaPolicy, OversubscribesOnlyUnderYoungIncumbents) {
  GandivaDlPolicy policy;
  DlEngine eng(tiny_cfg(1), policy, 4);
  eng.jobs() = {job(0, 1, 10 * kHour), job(1, 1, kHour)};
  eng.jobs()[0].attained = 3 * kHour;  // old trainer
  eng.pending() = {0, 1};
  policy.schedule(eng.view());  // places job 0 exclusively
  ASSERT_TRUE(eng.jobs()[0].running);
  policy.schedule(eng.view());  // job 1 must NOT slice under the old trainer
  EXPECT_FALSE(eng.jobs()[1].running);

  // Make the incumbent young: slicing becomes legal.
  eng.jobs()[0].attained = 10 * kMinute;
  policy.schedule(eng.view());
  EXPECT_TRUE(eng.jobs()[1].running);
  EXPECT_EQ(eng.load(0), 2);
  EXPECT_GT(policy.migrations(), 0u);
}

TEST(GandivaPolicy, NeverSlicesUnderAGang) {
  GandivaDlPolicy policy;
  DlEngine eng(tiny_cfg(2), policy, 5);
  eng.jobs() = {job(0, 2, kHour, 0), job(1, 1, kHour, 0)};
  eng.pending() = {0, 1};
  policy.schedule(eng.view());
  EXPECT_TRUE(eng.jobs()[0].running);
  EXPECT_FALSE(eng.jobs()[1].running);  // no slicing under gang members
}

TEST(TiresiasPolicy, LasPrefersLeastAttained) {
  DlClusterConfig cfg = tiny_cfg(1);
  cfg.quantum = 0;  // reschedule every call
  TiresiasDlPolicy policy;
  DlEngine eng(cfg, policy, 6);
  eng.jobs() = {job(0, 1, 10 * kHour), job(1, 1, 10 * kHour)};
  eng.jobs()[0].attained = 2 * kMinute;
  eng.jobs()[1].attained = 0;
  eng.pending() = {0, 1};
  eng.advance_to(kHour);  // past the first quantum boundary
  policy.schedule(eng.view());
  EXPECT_FALSE(eng.jobs()[0].running);
  EXPECT_TRUE(eng.jobs()[1].running);  // least attained wins the single GPU
}

TEST(TiresiasPolicy, AttainedCapPreventsStarvationOrdering) {
  DlClusterConfig cfg = tiny_cfg(1);
  cfg.quantum = 0;
  // Both far past the cap: FIFO by arrival decides, not attained service.
  TiresiasDlPolicy policy;
  DlEngine eng(cfg, policy, 7);
  eng.jobs() = {job(0, 1, 10 * kHour, /*arrival=*/5),
                job(1, 1, 10 * kHour, /*arrival=*/0)};
  eng.jobs()[0].attained = 2 * kHour;
  eng.jobs()[1].attained = 9 * kHour;  // more attained but earlier arrival
  eng.pending() = {0, 1};
  eng.advance_to(kHour);
  policy.schedule(eng.view());
  EXPECT_TRUE(eng.jobs()[1].running);
  EXPECT_FALSE(eng.jobs()[0].running);
}

TEST(CbpPpPolicy, BackfillsAroundBlockedGang) {
  CbpPpDlPolicy policy;
  DlEngine eng(tiny_cfg(2), policy, 8);
  eng.jobs() = {job(0, 8, kHour), job(1, 1, kHour)};
  eng.pending() = {0, 1};
  policy.schedule(eng.view());
  EXPECT_FALSE(eng.jobs()[0].running);
  EXPECT_TRUE(eng.jobs()[1].running);  // small job backfills past the head
}

TEST(DlSimulation, TwoJobTraceShortJobBenefitsFromSizeAwareness) {
  // One GPU, a long trainer at t=0 and a short one a minute later. A FIFO
  // policy (Res-Ag) makes the short job wait out the long one; size/LAS
  // aware policies (Tiresias, Gandiva) let it through, so their mean JCT
  // on this hand-built trace must not be worse.
  DlClusterConfig cluster;
  cluster.nodes = 1;
  cluster.gpus_per_node = 1;

  DlWorkload wl;
  wl.horizon = 6 * kHour;
  wl.jobs = {job(0, 1, 2 * kHour, /*arrival=*/0),
             job(1, 1, 15 * kMinute, /*arrival=*/1 * kMinute)};

  const auto resag = run_dl_simulation("resag", cluster, wl, /*seed=*/7);
  const auto tiresias = run_dl_simulation("tiresias", cluster, wl, /*seed=*/7);
  const auto gandiva = run_dl_simulation("gandiva", cluster, wl, /*seed=*/7);

  ASSERT_EQ(resag.dlt_completed, 2u);
  ASSERT_EQ(tiresias.dlt_completed, 2u);
  ASSERT_EQ(gandiva.dlt_completed, 2u);
  EXPECT_LE(tiresias.avg_jct_h, resag.avg_jct_h);
  EXPECT_LE(gandiva.avg_jct_h, resag.avg_jct_h);
  // Under FIFO the short job's JCT includes the long job's residual
  // service, so the trace has real head-of-line blocking to harvest.
  EXPECT_GT(resag.avg_jct_h, 1.0);
}

TEST(DlSimulation, ConfigAndExplicitWorkloadPathsAgree) {
  // run_dl_simulation(config) must equal generating the workload by hand
  // (fork stream 1) and calling the explicit-workload overload —
  // bit-identical results, not just statistically close.
  DlClusterConfig cluster;
  cluster.nodes = 2;
  cluster.gpus_per_node = 4;
  DlWorkloadConfig workload;
  workload.dlt_jobs = 24;
  workload.dli_queries = 60;
  workload.window = 2 * kHour;

  for (const auto& policy : dl_policy_names()) {
    SCOPED_TRACE(policy);
    const std::uint64_t seed = 11;
    const auto via_config = run_dl_simulation(policy, cluster, workload, seed);
    Rng rng(seed);
    const DlWorkload wl = generate_dl_workload(workload, rng.fork(1));
    const auto via_workload = run_dl_simulation(policy, cluster, wl, seed);

    EXPECT_EQ(via_config.avg_jct_h, via_workload.avg_jct_h);
    EXPECT_EQ(via_config.median_jct_h, via_workload.median_jct_h);
    EXPECT_EQ(via_config.p99_jct_h, via_workload.p99_jct_h);
    EXPECT_EQ(via_config.dlt_completed, via_workload.dlt_completed);
    EXPECT_EQ(via_config.dli_violations, via_workload.dli_violations);
    EXPECT_EQ(via_config.crash_restarts, via_workload.crash_restarts);
    EXPECT_EQ(via_config.preemptions, via_workload.preemptions);
    EXPECT_EQ(via_config.run_digest, via_workload.run_digest);
  }
}

TEST(CbpPpPolicy, LullForecastServesQueryNearNative) {
  DlClusterConfig cfg = tiny_cfg(1);
  cfg.pp_accuracy = 1.0;  // always predicts the lull correctly
  CbpPpDlPolicy policy;
  DlEngine eng(cfg, policy, 9);
  eng.jobs() = {job(0, 1, kHour)};
  eng.pending() = {0};
  policy.schedule(eng.view());
  DliQuery q;
  q.base_latency = 40 * kMsec;
  q.qos = 150 * kMsec;
  const SimTime latency = policy.serve_query(eng.view(), q);
  EXPECT_LE(latency, 50 * kMsec);  // 1.15x of base, no blocking
  EXPECT_EQ(policy.crash_restarts(), 0u);
}

}  // namespace
}  // namespace knots::dlsim
