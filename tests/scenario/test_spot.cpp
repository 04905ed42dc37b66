// Spot/preemptible capacity laws.
//
// Placement: CBP treats spot capacity as the harvest sink — batch pods soak
// up preemptible nodes first, while pods flagged avoid_preemptible never
// touch them (a hard constraint, active-walk and parked-wake alike).
// Lifecycle: a kSpotReclaim fault takes the node down after its notice
// grace; every resident is evicted back to pending and relaunched, and the
// physical-consistency auditor must stay clean throughout — pods are
// conserved under reclaim at any seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "knots/experiment.hpp"
#include "knots/kube_knots.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "workload/rodinia.hpp"
#include "workload/workload_spec.hpp"

namespace knots {
namespace {

/// 2 on-demand + 2 spot nodes (nodes 2 and 3 preemptible), CBP.
ExperimentConfig spot_config(std::uint64_t seed = 42) {
  ExperimentConfig cfg = default_experiment(1, sched::SchedulerKind::kCbp);
  cfg.cluster.node_classes = {
      cluster::NodeClass{.device_model = "p100-16g", .count = 2},
      cluster::NodeClass{.device_model = "p100-16g",
                         .count = 2,
                         .preemptible = true,
                         .spot_notice = 5 * kSec}};
  cfg.cluster.nodes = 4;
  cfg.workload.duration = 30 * kSec;
  cfg.seed = seed;
  cfg.cluster.seed = seed;
  return cfg;
}

std::vector<workload::PodSpec> batch_pods(int n, bool avoid_preemptible) {
  std::vector<workload::PodSpec> pods;
  for (int i = 0; i < n; ++i) {
    workload::PodSpec spec =
        workload::BatchJobSpec(workload::RodiniaApp::kKmeans)
            .time_scale(25.0)
            .cycles(3)
            .arrival(i * kSec)
            .build();
    spec.avoid_preemptible = avoid_preemptible;
    pods.push_back(std::move(spec));
  }
  return pods;
}

/// Runs `pods` on the spot cluster and returns, per placement, whether the
/// hosting node is preemptible.
std::vector<bool> placement_spot_flags(
    const ExperimentConfig& cfg, const std::vector<workload::PodSpec>& pods) {
  obs::TraceSink trace;
  KubeKnots knots(cfg);
  knots.attach_tracer(&trace);
  for (const auto& spec : pods) knots.submit(spec);
  (void)knots.run();
  std::vector<bool> flags;
  for (const auto& e : trace.events()) {
    if (e.kind != obs::EventKind::kPlace) continue;
    const NodeId node = knots.cluster().node_of_gpu(GpuId{e.b});
    flags.push_back(knots.cluster().node_spec(node).preemptible);
  }
  return flags;
}

TEST(Spot, BatchWorkHarvestsSpotCapacityFirst) {
  const auto flags = placement_spot_flags(spot_config(), batch_pods(6, false));
  ASSERT_FALSE(flags.empty());
  // Harvested batch work prefers preemptible nodes: the first placement
  // lands on spot, and spot hosts at least as many placements as on-demand.
  EXPECT_TRUE(flags.front());
  int on_spot = 0;
  for (const bool f : flags) on_spot += f ? 1 : 0;
  EXPECT_GE(2 * on_spot, static_cast<int>(flags.size()));
}

TEST(Spot, AvoidPreemptibleIsAHardConstraint) {
  const auto flags = placement_spot_flags(spot_config(), batch_pods(6, true));
  ASSERT_FALSE(flags.empty());
  for (std::size_t i = 0; i < flags.size(); ++i) {
    EXPECT_FALSE(flags[i]) << "placement #" << i << " landed on spot";
  }
}

// Pod conservation under reclaim, fuzzed over seeds: a spot node reclaimed
// mid-run (one transient, one permanent) evicts its residents, every pod
// still reaches a terminal state, and the invariant auditor — which checks
// conservation, dead-node residency and tenant accounting every tick —
// stays clean.
TEST(Spot, ReclaimConservesPodsAcrossSeeds) {
  std::uint64_t evictions = 0;
  for (std::uint64_t seed : {1ull, 7ull, 23ull, 101ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExperimentConfig cfg = spot_config(seed);
    cfg.faults.spot_reclaim(NodeId{2}, 10 * kSec, 15 * kSec);
    cfg.faults.spot_reclaim(NodeId{3}, 14 * kSec, /*down_for=*/0);

    const auto report = run_experiment(cfg);
    EXPECT_EQ(report.invariant_violations, 0u)
        << (report.invariant_messages.empty()
                ? ""
                : report.invariant_messages.front());
    EXPECT_GT(report.invariant_checks, 0u);
    EXPECT_EQ(report.pods_completed, report.pods_total);
    evictions += report.pods_evicted;
  }
  // At least one seed must actually have exercised the eviction path,
  // otherwise the conservation claim above was vacuous.
  EXPECT_GT(evictions, 0u);
}

// A node crash and a spot reclaim on the same node share one outage. A
// crash inside the reclaim's notice window takes the node down first, and
// the reclaim finds it down and does nothing; a crash during the reclaim's
// outage finds it down too. Either way the node goes down once and comes
// back once.
TEST(Spot, CrashDuringNoticeAbsorbsTheReclaim) {
  struct Case {
    const char* name;
    SimTime crash_at;
    SimTime crash_for;
    SimTime reclaim_for;
    SimTime down_at;
    SimTime up_at;
  };
  // The reclaim notices at 10 s and, after node 2's 5 s notice, takes the
  // node at 15 s.
  const Case cases[] = {
      {"crash during the notice", 12 * kSec, 6 * kSec, 15 * kSec, 12 * kSec,
       18 * kSec},
      {"crash during the outage", 18 * kSec, 3 * kSec, 10 * kSec, 15 * kSec,
       25 * kSec},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ExperimentConfig cfg = spot_config(7);
    cfg.faults.spot_reclaim(NodeId{2}, 10 * kSec, c.reclaim_for);
    cfg.faults.node_crash(NodeId{2}, c.crash_at, c.crash_for);

    obs::TraceSink trace;
    KubeKnots knots(cfg);
    knots.attach_tracer(&trace);
    knots.submit_mix_workload();
    const auto report = knots.run();

    std::vector<SimTime> downs;
    std::vector<SimTime> ups;
    for (const auto& e : trace.events()) {
      if (e.kind == obs::EventKind::kNodeDown) downs.push_back(e.ts);
      if (e.kind == obs::EventKind::kNodeUp) ups.push_back(e.ts);
    }
    EXPECT_EQ(report.node_crashes, 1u);
    EXPECT_EQ(report.node_recoveries, 1u);
    EXPECT_EQ(downs, std::vector<SimTime>{c.down_at});
    EXPECT_EQ(ups, std::vector<SimTime>{c.up_at});
    EXPECT_GT(report.pods_total, 0u);
    EXPECT_EQ(report.pods_completed, report.pods_total);
    EXPECT_EQ(report.invariant_violations, 0u)
        << (report.invariant_messages.empty()
                ? ""
                : report.invariant_messages.front());
  }
}

TEST(Spot, ReclaimRunsAreDeterministic) {
  ExperimentConfig cfg = spot_config(7);
  cfg.faults.spot_reclaim(NodeId{3}, 10 * kSec, 10 * kSec);
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.pods_evicted, b.pods_evicted);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
}

}  // namespace
}  // namespace knots
