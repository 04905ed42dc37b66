// The declarative scenario format: parser contract + rejection matrix.
//
// Accepting side: the documented example file must round-trip into the
// ExperimentConfig it claims to describe (heterogeneous node classes, spot
// notice, tenant quotas, fault schedule, auto fabric, power cap). Rejecting
// side: every malformed or semantically impossible input must fail with a
// diagnostic naming the offending line — never abort — because knots_ctl
// turns these into exit-code-2 CLI errors.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "fault/fault_plan.hpp"
#include "knots/experiment.hpp"
#include "knots/scenario.hpp"
#include "sched/registry.hpp"

namespace knots {
namespace {

std::optional<ScenarioSpec> parse(const std::string& text,
                                  std::string& error) {
  std::istringstream in(text);
  return parse_scenario(in, error);
}

constexpr const char* kMixedFleet = R"(# the documented example
name mixed-fleet
scheduler CBP
seed 7
duration 120s
mix 1
nodeclass ondemand p100-16g 6
nodeclass spot v100-32g 4 preemptible notice=10s
tenant 1 quota_mb=40000
tenant 2 quota_mb=30000 quota_gpu_s=500
workload_tenants 1,2
fabric auto
power_cap_watts 4000
fault spot_reclaim node=7 at=60s duration=30s
)";

TEST(ScenarioSpec, ParsesTheDocumentedExample) {
  std::string error;
  const auto spec = parse(kMixedFleet, error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->name, "mixed-fleet");

  const ExperimentConfig& cfg = spec->config;
  EXPECT_EQ(cfg.scheduler, sched::SchedulerKind::kCbp);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_EQ(cfg.workload.duration, 120 * kSec);
  EXPECT_EQ(cfg.mix_id, 1);

  // Node classes expand in file order; total node count is their sum.
  ASSERT_EQ(cfg.cluster.node_classes.size(), 2u);
  const auto& ondemand = cfg.cluster.node_classes[0];
  EXPECT_EQ(ondemand.device_model, "p100-16g");
  EXPECT_EQ(ondemand.count, 6);
  EXPECT_FALSE(ondemand.preemptible);
  const auto& spot = cfg.cluster.node_classes[1];
  EXPECT_EQ(spot.device_model, "v100-32g");
  EXPECT_EQ(spot.count, 4);
  EXPECT_TRUE(spot.preemptible);
  EXPECT_EQ(spot.spot_notice, 10 * kSec);
  EXPECT_EQ(cfg.cluster.nodes, 10);

  ASSERT_EQ(cfg.cluster.tenant_quotas.size(), 2u);
  EXPECT_EQ(cfg.cluster.tenant_quotas[0].tenant, 1);
  EXPECT_EQ(cfg.cluster.tenant_quotas[0].provision_cap_mb, 40000.0);
  EXPECT_EQ(cfg.cluster.tenant_quotas[0].gpu_seconds_cap, 0.0);
  EXPECT_EQ(cfg.cluster.tenant_quotas[1].tenant, 2);
  EXPECT_EQ(cfg.cluster.tenant_quotas[1].provision_cap_mb, 30000.0);
  EXPECT_EQ(cfg.cluster.tenant_quotas[1].gpu_seconds_cap, 500.0);

  ASSERT_EQ(cfg.workload.tenants.size(), 2u);
  EXPECT_EQ(cfg.workload.tenants[0], 1);
  EXPECT_EQ(cfg.workload.tenants[1], 2);

  EXPECT_FALSE(cfg.cluster.fabric.empty());  // fabric auto
  EXPECT_EQ(cfg.cluster.power_cap_watts, 4000.0);

  ASSERT_EQ(cfg.faults.events.size(), 1u);
  const auto& ev = cfg.faults.events[0];
  EXPECT_EQ(ev.kind, fault::FaultKind::kSpotReclaim);
  EXPECT_EQ(ev.node.value, 7);
  EXPECT_EQ(ev.at, 60 * kSec);
  EXPECT_EQ(ev.duration, 30 * kSec);
}

TEST(ScenarioSpec, MinimalScenarioUsesDefaults) {
  std::string error;
  const auto spec = parse("nodeclass fleet p100-16g 4\n", error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->name, "scenario");
  EXPECT_EQ(spec->config.cluster.nodes, 4);
  EXPECT_TRUE(spec->config.cluster.tenant_quotas.empty());
  EXPECT_TRUE(spec->config.faults.empty());
  EXPECT_TRUE(spec->config.cluster.fabric.empty());
  EXPECT_EQ(spec->config.cluster.power_cap_watts, 0.0);
}

TEST(ScenarioSpec, CommentsAndBlankLinesAreIgnored) {
  std::string error;
  const auto spec = parse(
      "# leading comment\n"
      "\n"
      "nodeclass fleet p100-16g 2   # trailing comment\n"
      "   \n",
      error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->config.cluster.nodes, 2);
}

TEST(ScenarioSpec, PerClassGpusOverrideTheGlobalDefault) {
  std::string error;
  const auto spec = parse(
      "gpus_per_node 2\n"
      "nodeclass dense a100-40g 1 gpus=8\n"
      "nodeclass lean p100-16g 3\n",
      error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->config.cluster.gpus_per_node, 2);
  EXPECT_EQ(spec->config.cluster.node_classes[0].gpus_per_node, 8);
  EXPECT_EQ(spec->config.cluster.node_classes[1].gpus_per_node, 0);  // inherit
}

struct Rejection {
  const char* label;
  const char* text;
  const char* expect;  ///< Substring of the diagnostic.
};

TEST(ScenarioSpec, RejectionMatrix) {
  const Rejection cases[] = {
      {"empty file", "", "no node classes"},
      {"unknown directive", "frobnicate 3\n", "line 1"},
      {"unknown directive after valid line",
       "nodeclass a p100-16g 2\nbogus 1\n", "line 2"},
      {"unknown device model", "nodeclass a k80-24g 2\n",
       "unknown device model"},
      {"zero count", "nodeclass a p100-16g 0\n", "positive"},
      {"preemptible without notice",
       "nodeclass a p100-16g 2 preemptible\n", "notice"},
      {"notice without preemptible",
       "nodeclass a p100-16g 2 notice=10s\n", "preemptible"},
      {"bad nodeclass token", "nodeclass a p100-16g 2 spot\n",
       "unknown nodeclass token"},
      {"quota exceeds cluster",
       "nodeclass a p100-16g 2\ntenant 1 quota_mb=99999999\n",
       "line 2: tenant 1 quota_mb 99999999 exceeds total cluster memory"},
      {"tenant declared twice",
       "nodeclass a p100-16g 2\ntenant 1 quota_mb=100\ntenant 1 "
       "quota_mb=200\n",
       "declared twice"},
      {"tenant id zero", "nodeclass a p100-16g 2\ntenant 0 quota_mb=100\n",
       "positive"},
      {"tenant without caps", "nodeclass a p100-16g 2\ntenant 1\n", "tenant"},
      {"negative quota", "nodeclass a p100-16g 2\ntenant 1 quota_mb=-5\n",
       "positive"},
      {"fault node out of range",
       "nodeclass a p100-16g 2\nfault node_crash node=2 at=5s\n",
       "line 2: fault targets node 2 but the scenario has only 2 nodes"},
      {"spot reclaim of on-demand node",
       "nodeclass a p100-16g 2\nfault spot_reclaim node=0 at=5s\n",
       "line 2: spot_reclaim targets node 0 which is not in a preemptible"},
      {"unknown fault kind",
       "nodeclass a p100-16g 2\nfault meteor node=0 at=5s\n",
       "unknown fault kind"},
      {"fault missing at", "nodeclass a p100-16g 2\nfault node_crash node=0\n",
       "fault"},
      {"unknown scheduler", "scheduler FIFO\nnodeclass a p100-16g 2\n",
       "unknown scheduler"},
      {"unknown mix", "mix 99\nnodeclass a p100-16g 2\n", "unknown app mix"},
      {"lanes directive is gone", "lanes 4\nnodeclass a p100-16g 2\n",
       "line 1: unknown or malformed directive 'lanes'"},
      {"zero duration", "duration 0s\nnodeclass a p100-16g 2\n", "duration"},
      {"bad workload tenants",
       "nodeclass a p100-16g 2\nworkload_tenants 1,x\n", "tenant ids"},
      {"bad fabric", "fabric mesh\nnodeclass a p100-16g 2\n", "auto|none"},
      {"bad seed", "seed -3\nnodeclass a p100-16g 2\n", "seed"},
      {"zero power cap", "power_cap_watts 0\nnodeclass a p100-16g 2\n",
       "positive"},
      // Non-finite doubles: rejected on every double field.
      {"nan load scale", "load_scale nan\nnodeclass a p100-16g 2\n",
       "line 1: load_scale"},
      {"inf load scale", "load_scale inf\nnodeclass a p100-16g 2\n",
       "line 1: load_scale"},
      {"nan image size", "image_mb nan\nnodeclass a p100-16g 2\n",
       "line 1: image_mb"},
      {"inf power cap", "power_cap_watts inf\nnodeclass a p100-16g 2\n",
       "line 1: power_cap_watts"},
      {"inf quota", "nodeclass a p100-16g 2\ntenant 1 quota_gpu_s=inf\n",
       "line 2: bad tenant token"},
      // Numbers past what their field can hold: rejected, never wrapped,
      // saturated or scaled into an overflow.
      {"node count past int", "nodeclass a p100-16g 99999999999\n",
       "line 1: nodeclass count"},
      {"duration past the clock",
       "duration 99999999999999s\nnodeclass a p100-16g 2\n",
       "line 1: duration"},
      {"integer past long long",
       "seed 99999999999999999999\nnodeclass a p100-16g 2\n", "line 1: seed"},
      {"gpus= past int", "nodeclass a p100-16g 2 gpus=4294967297\n",
       "line 1: nodeclass gpus"},
      {"gpus_per_node past int",
       "gpus_per_node 4294967297\nnodeclass a p100-16g 2\n",
       "line 1: gpus_per_node"},
      {"mix past int", "mix 4294967297\nnodeclass a p100-16g 2\n",
       "line 1: unknown app mix"},
      {"fault node past int",
       "nodeclass a p100-16g 2\nfault node_crash node=4294967296 at=5s\n",
       "line 2: fault node"},
      {"fault window past the clock",
       "nodeclass a p100-16g 2\n"
       "fault node_crash node=0 at=9000000000000s duration=9000000000000s\n",
       "line 2: fault at= plus duration="},
      {"spot notice past the clock",
       "nodeclass a p100-16g 2 preemptible notice=9000000000000s\n"
       "fault spot_reclaim node=0 at=9000000000000s\n",
       "line 2: spot_reclaim of node 0 plus its class notice overflows"},
      {"node total past int",
       "nodeclass a p100-16g 2000000000\nnodeclass b p100-16g 2000000000\n",
       "nodes in total"},
      // A fleet whose telemetry rings no host could hold: rejected at the
      // class that tips it over, before the cluster allocates them.
      {"telemetry past host memory",
       "nodeclass a p100-16g 2\nnodeclass b p100-16g 1000000 gpus=1000\n",
       "line 2: the fleet's telemetry rings need"},
      // A workload whose pods no host could hold: rejected at the workload
      // directive that came last, before anything is generated.
      {"workload past host memory",
       "nodeclass a p100-16g 2\nduration 9000000000000s\n",
       "line 2: the workload's pods need"},
      {"load past host memory",
       "duration 600000s\nnodeclass a p100-16g 2\nload_scale 1e5\n",
       "line 3: the workload's pods need"},
      // A load that leaves a stream no whole-microsecond mean gap (the
      // generator truncates 110 ms / 1e6 to 0 us) or a gap past what a time
      // holds: rejected at the same line, before generation aborts on it.
      {"load truncating a gap to 0 us",
       "nodeclass a p100-16g 1\nduration 1s\nload_scale 1000000\n",
       "line 3: load_scale leaves a mean inter-arrival gap under 1 us"},
      {"load truncating every gap to 0 us",
       "duration 600s\nnodeclass a p100-16g 2\nload_scale 1e15\n",
       "line 3: load_scale leaves a mean inter-arrival gap under 1 us"},
      {"load stretching a gap past the clock",
       "load_scale 1e-300\nnodeclass a p100-16g 2\n",
       "line 1: load_scale leaves a mean inter-arrival gap"},
      // A workload that draws no pod would run to an empty report: rejected
      // at the workload directive that came last. The first expects about
      // 2e-10 pods; the second expects 2.4 and draws none at seed 42.
      {"load drawing no pod",
       "nodeclass a p100-16g 1\nduration 1s\nload_scale 1e-10\n",
       "line 3: the workload generates no pods"},
      {"window drawing no pod",
       "seed 42\nmix 3\nduration 2s\nnodeclass a p100-16g 1\n",
       "line 3: the workload generates no pods"},
      // A tenant cap below every provision its pods could get would run to
      // the drain deadline placing none of them: rejected at its line.
      {"tenant cap no pod fits",
       "nodeclass a p100-16g 2\nduration 30s\ntenant 1 quota_mb=1\n"
       "workload_tenants 1\n",
       "line 3: tenant 1 quota_mb 1 fits none of its pods"},
  };
  for (const Rejection& c : cases) {
    SCOPED_TRACE(c.label);
    std::string error;
    const auto spec = parse(c.text, error);
    EXPECT_FALSE(spec.has_value());
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << "diagnostic was: " << error;
  }
}

TEST(ScenarioSpec, TenantCapAtTheProvisionFloorParses) {
  // The smallest provision any scheduler gives these pods is CBP's 64 MB
  // floor (every request is larger), so a 64 MB cap can admit a pod.
  std::string error;
  const auto spec = parse(
      "nodeclass a p100-16g 2\nduration 30s\ntenant 1 quota_mb=64\n"
      "workload_tenants 1\n",
      error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->config.cluster.tenant_quotas.front().provision_cap_mb, 64.0);
}

TEST(ScenarioSpec, UnreadableFileIsAnError) {
  std::string error;
  const auto spec = load_scenario("/nonexistent/kube-knots/fleet.cfg", error);
  EXPECT_FALSE(spec.has_value());
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

// The flagship integration law: a heterogeneous + spot + multi-tenant +
// faulted scenario parsed from text replays bit for bit, with both tenants
// accounted and a clean invariant audit. (The committed examples/scenarios
// file is CI-gated against its golden digest.)
TEST(ScenarioSpec, MixedFleetScenarioReplays) {
  constexpr const char* kSmallFleet = R"(
name replay-law
scheduler CBP
seed 11
duration 30s
nodeclass ondemand p100-16g 3
nodeclass spot v100-32g 2 preemptible notice=5s
tenant 1 quota_mb=30000
tenant 2 quota_mb=24000
workload_tenants 1,2
fault spot_reclaim node=3 at=12s duration=10s
)";
  std::string error;
  const auto spec = parse(kSmallFleet, error);
  ASSERT_TRUE(spec.has_value()) << error;

  const auto first = run_experiment(spec->config);
  const auto second = run_experiment(spec->config);

  EXPECT_EQ(first.run_digest, second.run_digest);
  EXPECT_EQ(first.pods_completed, second.pods_completed);
  EXPECT_EQ(first.energy_joules, second.energy_joules);
  ASSERT_EQ(first.tenants.size(), 2u);
  EXPECT_EQ(first.tenants, second.tenants);
  EXPECT_EQ(first.invariant_violations, 0u);
  EXPECT_EQ(second.invariant_violations, 0u);
}

}  // namespace
}  // namespace knots
