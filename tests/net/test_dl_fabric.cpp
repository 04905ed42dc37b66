// dlsim on the fabric: per-policy inertness, gang all-reduce contention,
// the pack-vs-spread JCT ordering that motivates cbp-local, migration
// checkpoint charges, and pinned digests of every policy on a contended
// fabric, calm and under link and node faults.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "dlsim/dl_cluster.hpp"
#include "dlsim/dl_workload.hpp"
#include "fault/fault_plan.hpp"
#include "net/fabric.hpp"

namespace knots::dlsim {
namespace {

DlClusterConfig tiny_cluster() {
  DlClusterConfig cfg;
  cfg.nodes = 4;
  cfg.gpus_per_node = 4;
  return cfg;
}

DlWorkloadConfig tiny_workload() {
  DlWorkloadConfig wl;
  wl.dlt_jobs = 24;
  wl.dli_queries = 60;
  wl.window = 2 * kHour;
  return wl;
}

/// Two 2-GPU nodes, one ToR each: any 2-GPU gang either packs onto one
/// node's NVLink or drags its all-reduce across the spine.
DlClusterConfig pack_vs_spread_cluster(double allreduce_mb) {
  net::AutoFabricOptions opts;
  opts.nodes_per_tor = 1;
  DlClusterConfig cfg;
  cfg.nodes = 2;
  cfg.gpus_per_node = 2;
  cfg.fabric = net::FabricPlan::auto_derive(2, opts);
  cfg.allreduce_mb_per_step = allreduce_mb;
  return cfg;
}

/// job 0 (1 GPU) arrives first and pins a GPU on node 0; job 1 (gang of 2)
/// then either packs node 1 whole or spans both nodes.
DlWorkload pack_vs_spread_jobs() {
  DlWorkload wl;
  DltJob solo;
  solo.id = 0;
  solo.arrival = 0;
  solo.gpus = 1;
  solo.service = 2 * kHour;
  DltJob gang;
  gang.id = 1;
  gang.arrival = 1 * kSec;
  gang.gpus = 2;
  gang.service = 1 * kHour;
  wl.jobs = {solo, gang};
  wl.horizon = 12 * kHour;
  return wl;
}

TEST(DlFabric, ZeroLatencyFabricIsInertForEveryPolicy) {
  for (const auto& policy : dl_policy_names()) {
    const auto bare =
        run_dl_simulation(policy, tiny_cluster(), tiny_workload(), 7);
    DlClusterConfig with_fabric = tiny_cluster();
    with_fabric.fabric = net::FabricPlan::zero_latency(4);
    const auto inert =
        run_dl_simulation(policy, with_fabric, tiny_workload(), 7);
    EXPECT_EQ(bare.run_digest, inert.run_digest) << "policy " << policy;
    EXPECT_EQ(bare.dlt_completed, inert.dlt_completed);
  }
}

TEST(DlFabric, SpreadGangsPayTheAllReduce) {
  // The same spanning placement with and without per-step gradient
  // traffic: paying the fabric can only stretch the gang's JCT.
  const auto free_comm =
      run_dl_simulation("cbp-pp", pack_vs_spread_cluster(0.0),
                        pack_vs_spread_jobs(), 7);
  const auto paying =
      run_dl_simulation("cbp-pp", pack_vs_spread_cluster(1249.0),
                        pack_vs_spread_jobs(), 7);
  ASSERT_EQ(free_comm.dlt_completed, 2u);
  ASSERT_EQ(paying.dlt_completed, 2u);
  EXPECT_GT(paying.avg_jct_h, free_comm.avg_jct_h);
}

TEST(DlFabric, PackVsSpreadJctOrdering) {
  // cbp-pp spans the gang across both nodes and drags every step's
  // all-reduce over the spine path; cbp-local packs node 1 whole and
  // exchanges gradients over NVLink. Packing must win on JCT.
  const auto spread =
      run_dl_simulation("cbp-pp", pack_vs_spread_cluster(1249.0),
                        pack_vs_spread_jobs(), 7);
  const auto packed =
      run_dl_simulation("cbp-local", pack_vs_spread_cluster(1249.0),
                        pack_vs_spread_jobs(), 7);
  ASSERT_EQ(spread.dlt_completed, 2u);
  ASSERT_EQ(packed.dlt_completed, 2u);
  EXPECT_LT(packed.avg_jct_h, spread.avg_jct_h);
}

TEST(DlFabric, PackingIsJctNeutralWithoutAFabric) {
  // Off the fabric there is no locality to exploit: cbp-local's placement
  // differs only in which GPUs it picks, not in any job's speed.
  DlClusterConfig cfg;
  cfg.nodes = 2;
  cfg.gpus_per_node = 2;
  const auto spread =
      run_dl_simulation("cbp-pp", cfg, pack_vs_spread_jobs(), 7);
  const auto packed =
      run_dl_simulation("cbp-local", cfg, pack_vs_spread_jobs(), 7);
  EXPECT_EQ(spread.dlt_completed, packed.dlt_completed);
  EXPECT_DOUBLE_EQ(spread.avg_jct_h, packed.avg_jct_h);
}

TEST(DlFabric, CbpLocalMatchesCbpPpQueryPath) {
  // cbp-local only re-steers gang placement; its DLI serving path is
  // CBP+PP's. Fabric-free, the query outcomes must be identical.
  const auto pp = run_dl_simulation("cbp-pp", tiny_cluster(),
                                    tiny_workload(), 7);
  const auto local = run_dl_simulation("cbp-local", tiny_cluster(),
                                       tiny_workload(), 7);
  EXPECT_EQ(pp.queries.size(), local.queries.size());
  EXPECT_EQ(pp.dli_violations, local.dli_violations);
}

TEST(DlFabric, MigrationChargesTheCheckpointTransfer) {
  // Gandiva defragments by migrating trainers; with a fabric and a
  // non-zero checkpoint size each cross-node move pays a real transfer,
  // which is digest-visible. Single-GPU nodes force every migration to
  // cross the fabric.
  DlClusterConfig base;
  base.nodes = 4;
  base.gpus_per_node = 1;
  base.fabric = net::FabricPlan::auto_derive(4);
  // De-slice early so the window actually sees migrations.
  base.slice_young_threshold = 10 * kMinute;
  DlClusterConfig charged = base;
  charged.checkpoint_mb = 4096.0;
  DlWorkloadConfig wl;
  wl.dlt_jobs = 40;
  wl.dli_queries = 60;
  wl.window = 4 * kHour;
  const auto free_move = run_dl_simulation("gandiva", base, wl, 7);
  const auto paying = run_dl_simulation("gandiva", charged, wl, 7);
  ASSERT_GT(free_move.migrations, 0u);
  EXPECT_NE(free_move.run_digest, paying.run_digest);
  // The charge is deterministic: replaying reproduces it bit-for-bit.
  const auto replay = run_dl_simulation("gandiva", charged, wl, 7);
  EXPECT_EQ(paying.run_digest, replay.run_digest);
}

TEST(DlFabric, LinkFaultsAreDeterministicAndVisible) {
  DlClusterConfig cfg = tiny_cluster();
  cfg.fabric = net::FabricPlan::auto_derive(4);
  cfg.allreduce_mb_per_step = 512.0;
  DlRunOptions faulted;
  faulted.faults.link_down("spine", 10 * kMinute, 30 * kMinute);
  const auto calm = run_dl_simulation("cbp-pp", cfg, tiny_workload(), 7);
  const auto stormy =
      run_dl_simulation("cbp-pp", cfg, tiny_workload(), 7, faulted);
  const auto stormy2 =
      run_dl_simulation("cbp-pp", cfg, tiny_workload(), 7, faulted);
  EXPECT_NE(calm.run_digest, stormy.run_digest);
  EXPECT_EQ(stormy.run_digest, stormy2.run_digest);
}

/// Two nodes per ToR, so gangs contend on node uplinks and ToR uplinks as
/// well as the spine; a short de-slice threshold and a checkpoint charge
/// make Gandiva's migrations cross the fabric too.
DlClusterConfig contended_cluster(double allreduce_mb) {
  net::AutoFabricOptions opts;
  opts.nodes_per_tor = 2;
  DlClusterConfig cfg = tiny_cluster();
  cfg.fabric = net::FabricPlan::auto_derive(4, opts);
  cfg.allreduce_mb_per_step = allreduce_mb;
  cfg.checkpoint_mb = 1024.0;
  cfg.slice_young_threshold = 10 * kMinute;
  return cfg;
}

/// A spine outage, a degraded uplink and a node crash: every kind of edge
/// that moves a gang's all-reduce rate (link down/up, degrade/restore,
/// eviction and re-placement).
fault::FaultPlan contended_storm() {
  return fault::FaultPlan{}
      .link_down("spine", 10 * kMinute, 20 * kMinute)
      .link_degrade("n1-up", 40 * kMinute, 15 * kMinute, 4.0)
      .node_crash(NodeId{2}, 60 * kMinute, 10 * kMinute);
}

struct FabricGolden {
  const char* policy;
  std::uint64_t calm_digest;
  std::uint64_t calm_events;
  std::uint64_t storm_digest;
  std::uint64_t storm_events;
};

// Pinned on contended_cluster(512) with tiny_workload(), seed 7. These are
// the only goldens that cover the all-reduce factors: any drift means a
// gang's speed changed on the fabric.
constexpr FabricGolden kContended[] = {
    {"resag", 0x991935341b158dd8ull, 127, 0xc48ab2be674cc7ceull, 126},
    {"gandiva", 0xc171ebb1bd6e08e0ull, 57, 0x0fefa4e557871c42ull, 59},
    {"tiresias", 0xc7518088c0896defull, 562, 0xfa56617322110110ull, 565},
    {"cbp-pp", 0x329cc80d64515758ull, 55, 0x5a5479a5f6790860ull, 71},
    {"cbp-local", 0x329cc80d64515758ull, 55, 0x5a5479a5f6790860ull, 71},
};

TEST(DlFabric, ContendedGoldenDigestsArePinned) {
  ASSERT_EQ(std::size(kContended), dl_policy_names().size());
  for (const auto& g : kContended) {
    SCOPED_TRACE(g.policy);
    DlRunOptions stormy;
    stormy.faults = contended_storm();
    const auto calm =
        run_dl_simulation(g.policy, contended_cluster(512.0), tiny_workload(), 7);
    const auto storm = run_dl_simulation(g.policy, contended_cluster(512.0),
                                         tiny_workload(), 7, stormy);
    EXPECT_EQ(calm.run_digest, g.calm_digest)
        << "calm digest drifted (actual 0x" << std::hex << calm.run_digest
        << ")";
    EXPECT_EQ(calm.digest_events, g.calm_events);
    EXPECT_EQ(storm.run_digest, g.storm_digest)
        << "storm digest drifted (actual 0x" << std::hex << storm.run_digest
        << ")";
    EXPECT_EQ(storm.digest_events, g.storm_events);
    EXPECT_EQ(storm.node_crashes, 1u);
    EXPECT_EQ(storm.invariant_violations, 0u);
    // The all-reduce is what the goldens pin: without it, every run moves.
    const auto calm_free =
        run_dl_simulation(g.policy, contended_cluster(0.0), tiny_workload(), 7);
    const auto storm_free = run_dl_simulation(g.policy, contended_cluster(0.0),
                                              tiny_workload(), 7, stormy);
    EXPECT_NE(calm.run_digest, calm_free.run_digest);
    EXPECT_NE(storm.run_digest, storm_free.run_digest);
  }
}

TEST(DlFabric, GangCompletionReleasesItsShare) {
  // Four single-GPU nodes, one per ToR: every 2-GPU gang crosses the spine.
  // Two gangs share it at 500 MB/s each, so a 500 MB step exchange takes
  // 1 s on top of the 1 s step (factor 1/2); alone, the long gang gets the
  // whole 1,000 MB/s spine (factor 2/3). The short gang finishes its 1 h of
  // service at 2 h; the long one has 1 h done by then and needs 3 h more,
  // so it completes at 5 h — but only if the short gang's completion
  // releases its share of the spine.
  net::AutoFabricOptions opts;
  opts.nodes_per_tor = 1;
  opts.spine_mb_per_s = 1000.0;
  DlClusterConfig cfg;
  cfg.nodes = 4;
  cfg.gpus_per_node = 1;
  cfg.fabric = net::FabricPlan::auto_derive(4, opts);
  cfg.allreduce_mb_per_step = 500.0;
  DlWorkload wl;
  for (int id = 0; id < 2; ++id) {
    DltJob gang;
    gang.id = id;
    gang.arrival = 0;
    gang.gpus = 2;
    gang.service = (id == 0 ? 1 : 3) * kHour;
    wl.jobs.push_back(gang);
  }
  wl.horizon = 12 * kHour;
  const auto r = run_dl_simulation("cbp-pp", cfg, wl, 7);
  ASSERT_EQ(r.dlt_completed, 2u);
  ASSERT_EQ(r.jct_hours.size(), 2u);
  // A job completes one step after the tick that finishes its service.
  const double step_h = 1.0 / 3600.0;
  EXPECT_NEAR(r.jct_hours[0], 2.0, 1.5 * step_h);
  EXPECT_NEAR(r.jct_hours[1], 5.0, 1.5 * step_h);
  EXPECT_NEAR(r.avg_jct_h, 3.500139, 1e-6);
}

TEST(DlFabricDeath, FaultPlanRejectsUnknownLinkNames) {
  DlClusterConfig cfg = tiny_cluster();
  cfg.fabric = net::FabricPlan::auto_derive(4);
  DlRunOptions options;
  options.faults.link_down("bogus-link", 10 * kMinute);
  EXPECT_DEATH(run_dl_simulation("cbp-pp", cfg, tiny_workload(), 7, options),
               "KNOTS_CHECK");
}

}  // namespace
}  // namespace knots::dlsim
