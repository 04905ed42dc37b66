// The knots::net determinism and metamorphic law suite at cluster level:
// inertness per scheduler, plan-permutation invariance, unused-spine
// inertness, a pinned golden contended digest, fault-plan link validation,
// and flow observability.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "knots/experiment.hpp"
#include "knots/kube_knots.hpp"
#include "net/fabric.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"

namespace knots {
namespace {

ExperimentConfig::Builder tiny(sched::SchedulerKind kind) {
  ExperimentConfig::Builder b;
  b.scheduler(kind).nodes(4).duration(30 * kSec).seed(7);
  return b;
}

/// The pinned contended configuration behind the golden digest: four nodes
/// on two ToRs, real image pulls, and a mid-run ToR uplink outage.
ExperimentConfig contended_config() {
  net::AutoFabricOptions opts;
  opts.nodes_per_tor = 2;
  fault::FaultPlan faults;
  faults.link_down("tor0-up", 5 * kSec, 10 * kSec);
  auto b = tiny(sched::SchedulerKind::kPeakPrediction);
  b.fabric(net::FabricPlan::auto_derive(4, opts))
      .image_mb(2048.0)
      .faults(std::move(faults));
  return b.build();
}

TEST(NetLaws, ZeroLatencyFabricIsInertForEveryScheduler) {
  for (const auto kind : sched::kAllSchedulers) {
    const auto bare = run_experiment(tiny(kind).build());
    const auto inert =
        run_experiment(tiny(kind).fabric(net::FabricPlan::zero_latency(4))
                           .build());
    EXPECT_EQ(bare.run_digest, inert.run_digest)
        << "scheduler " << sched::to_string(kind);
    EXPECT_EQ(inert.flows_started, 0u);
    EXPECT_EQ(inert.link_events, 0u);
  }
}

TEST(NetLaws, ActiveFabricChangesTheRunAndMovesBytes) {
  const auto bare = run_experiment(tiny(sched::SchedulerKind::kCbp).build());
  const auto fabric = run_experiment(
      tiny(sched::SchedulerKind::kCbp).auto_fabric().build());
  EXPECT_NE(bare.run_digest, fabric.run_digest);
  EXPECT_GT(fabric.flows_started, 0u);
  EXPECT_EQ(fabric.flows_started, fabric.flows_finished);
  // Every finished flow is a full image pull.
  EXPECT_DOUBLE_EQ(fabric.mb_transferred,
                   2048.0 * static_cast<double>(fabric.flows_finished));
}

TEST(NetLaws, LinkDeclarationOrderIsDigestInvariant) {
  net::FabricPlan forward = net::FabricPlan::auto_derive(4);
  net::FabricPlan reversed = forward;
  std::reverse(reversed.links.begin(), reversed.links.end());
  const auto a = run_experiment(
      tiny(sched::SchedulerKind::kPeakPrediction).fabric(forward).build());
  const auto b = run_experiment(
      tiny(sched::SchedulerKind::kPeakPrediction).fabric(reversed).build());
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.flows_started, b.flows_started);
}

TEST(NetLaws, UnusedSpineLinkIsInert) {
  net::FabricPlan base = net::FabricPlan::auto_derive(4);
  net::FabricPlan extra = base;
  // "spine" sorts before "spine-extra", so only the former is ever routed.
  extra.spine("spine-extra", 1.0, 200);
  const auto a = run_experiment(
      tiny(sched::SchedulerKind::kPeakPrediction).fabric(base).build());
  const auto b = run_experiment(
      tiny(sched::SchedulerKind::kPeakPrediction).fabric(extra).build());
  EXPECT_EQ(a.run_digest, b.run_digest);
}

TEST(NetLaws, GoldenContendedDigestIsPinned) {
  // Bit-exact anchor for the contended fabric pipeline. A change here is a
  // semantic change to flow/contention/fault ordering and must be
  // deliberate: re-pin only with a PR note explaining why.
  const auto report = run_experiment(contended_config());
  EXPECT_GT(report.flows_started, 0u);  // the pin covers real contention
  EXPECT_EQ(report.run_digest, 0x6eceb54ddf1f8a4aULL);
}

TEST(NetLaws, LinkFaultsAreDigestVisibleAndRecover) {
  net::AutoFabricOptions opts;
  opts.nodes_per_tor = 2;
  const auto plan = net::FabricPlan::auto_derive(4, opts);
  const auto calm = run_experiment(
      tiny(sched::SchedulerKind::kPeakPrediction).fabric(plan).build());
  fault::FaultPlan faults;
  faults.link_down("spine", 5 * kSec, 5 * kSec);
  const auto stormy =
      run_experiment(tiny(sched::SchedulerKind::kPeakPrediction)
                         .fabric(plan)
                         .faults(std::move(faults))
                         .build());
  EXPECT_NE(calm.run_digest, stormy.run_digest);
  EXPECT_EQ(stormy.link_events, 2u);  // down + restore
}

TEST(NetLawsDeath, FaultPlanRejectsLinkFaultsOnUnknownLinks) {
  fault::FaultPlan faults;
  faults.link_down("no-such-link", 5 * kSec);
  const auto cfg = tiny(sched::SchedulerKind::kPeakPrediction)
                       .auto_fabric()
                       .faults(std::move(faults))
                       .build();
  EXPECT_DEATH({ KubeKnots knots(cfg); }, "KNOTS_CHECK");
}

TEST(NetLawsDeath, FaultPlanRejectsLinkFaultsWithoutAFabric) {
  fault::FaultPlan faults;
  faults.link_down("spine", 5 * kSec);
  const auto cfg = tiny(sched::SchedulerKind::kPeakPrediction)
                       .faults(std::move(faults))
                       .build();
  EXPECT_DEATH({ KubeKnots knots(cfg); }, "KNOTS_CHECK");
}

TEST(NetLaws, ImagePullsStretchPodStartup) {
  // A fat image over a thin fabric delays readiness: the run completes
  // fewer pods (or finishes them later) than the free-startup baseline.
  net::AutoFabricOptions slow;
  slow.nodes_per_tor = 2;
  slow.node_uplink_mb_per_s = 20.0;  // ~100 s per 2 GB pull
  const auto fast =
      run_experiment(tiny(sched::SchedulerKind::kPeakPrediction).build());
  const auto pulled = run_experiment(
      tiny(sched::SchedulerKind::kPeakPrediction)
          .fabric(net::FabricPlan::auto_derive(4, slow))
          .build());
  EXPECT_GT(pulled.flows_started, 0u);
  // Slow pulls can only hurt: never more completions, never a faster mean.
  EXPECT_LE(pulled.pods_completed, fast.pods_completed);
  EXPECT_GE(pulled.mean_jct_s, fast.mean_jct_s);
}

TEST(NetLaws, TracedFabricRunRecordsFlowAndLinkEvents) {
  obs::TraceSink trace;
  RunObservability observability;
  observability.trace = &trace;
  const auto report = run_experiment(contended_config(), observability);
  EXPECT_EQ(trace.count(obs::EventKind::kFlowStart), report.flows_started);
  EXPECT_EQ(trace.count(obs::EventKind::kFlowFinish), report.flows_finished);
  EXPECT_EQ(trace.count(obs::EventKind::kLinkDown) +
                trace.count(obs::EventKind::kLinkUp),
            report.link_events);
  EXPECT_GT(trace.count(obs::EventKind::kFlowStart), 0u);
  EXPECT_EQ(trace.count(obs::EventKind::kLinkDown), 1u);
  EXPECT_EQ(trace.count(obs::EventKind::kLinkUp), 1u);
  // Attaching the tracer never changes the run.
  const auto untraced = run_experiment(contended_config());
  EXPECT_EQ(report.run_digest, untraced.run_digest);
}

}  // namespace
}  // namespace knots
