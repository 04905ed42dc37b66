// Golden run digests for the DL substrate.
//
// The DL engine folds every placement, crash, requeue, completion, eviction
// and node transition into a verify::RunDigest with the same tag recipe as
// pod-cluster runs. These tests pin the digests of all four policies —
// fault-free and under a four-kind fault storm — and prove the optional
// trace is strong enough to replay the digest bit-for-bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>

#include "dlsim/dl_cluster.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"
#include "verify/run_digest.hpp"

namespace knots::dlsim {
namespace {

DlClusterConfig small_cluster() {
  DlClusterConfig cfg;
  cfg.nodes = 4;
  cfg.gpus_per_node = 4;
  return cfg;
}

DlWorkloadConfig small_workload() {
  DlWorkloadConfig wl;
  wl.dlt_jobs = 40;
  wl.dli_queries = 150;
  wl.window = 2 * kHour;
  return wl;
}

constexpr std::uint64_t kSeed = 7;

fault::FaultPlan storm_plan() {
  // One of each fault kind on a distinct node: crash + recovery, an ECC
  // degrade harsh enough to evict a resident trainer (16 GB -> 4 GB), a
  // heartbeat gap (no DL-visible effect, must still be harmless) and a
  // PCIe stall that slows co-located progress.
  return fault::FaultPlan{}
      .node_crash(NodeId{1}, 30 * kMinute, 30 * kMinute)
      .gpu_ecc_degrade(NodeId{0}, 45 * kMinute, 12288.0)
      .heartbeat_loss(NodeId{2}, 40 * kMinute, 5 * kMinute)
      .pcie_stall(NodeId{3}, 20 * kMinute, 10 * kMinute, 3.0);
}

struct Golden {
  const char* policy;
  std::uint64_t digest;
  std::uint64_t events;
};

// Pinned on the 4x4 / 40-job / 150-query / 2 h workload, seed 7. Any drift
// means DL scheduling behaviour changed — update deliberately, never
// casually.
constexpr Golden kFaultFree[] = {
    {"resag", 0x1b67335b67314a91ull, 320},
    {"gandiva", 0x6b81dc542165d23aull, 70},
    {"tiresias", 0x9890bc06a6ff501bull, 586},
    {"cbp-pp", 0x142fe7c75c2a1c1dull, 65},
};

// The run digest folds decisions only; these pin the figure values each
// fault-free run reports (JCTs, query latencies, violations, restarts,
// migrations, preemptions, power and energy), in kFaultFree's order.
constexpr std::uint64_t kFaultFreeFigures[] = {
    0x065827821bca6bceull,  // resag
    0x611b82eab076b65eull,  // gandiva
    0x2943fa390b1497feull,  // tiresias
    0x7c5aa73d2dd2c4fcull,  // cbp-pp
};
static_assert(std::size(kFaultFreeFigures) == std::size(kFaultFree));

/// FNV-1a fold of a result's figure values, in field order.
std::uint64_t figure_digest(const DlResult& r) {
  verify::RunDigest d;
  for (const double h : r.jct_hours) d.mix_double(h);
  d.mix_double(r.avg_jct_h);
  d.mix_double(r.median_jct_h);
  d.mix_double(r.p99_jct_h);
  for (const DliRecord& q : r.queries) {
    d.mix_u64(static_cast<std::uint64_t>(q.arrival));
    d.mix_u64(static_cast<std::uint64_t>(q.latency));
    d.mix_u64(q.violated ? 1 : 0);
  }
  d.mix_u64(r.dli_violations);
  d.mix_double(r.violations_per_hour);
  d.mix_u64(r.crash_restarts);
  d.mix_u64(r.migrations);
  d.mix_u64(r.preemptions);
  d.mix_double(r.mean_power_watts);
  d.mix_double(r.energy_joules);
  return d.value();
}

constexpr Golden kStorm[] = {
    {"resag", 0x0f3ca67c8a71cf3bull, 293},
    {"gandiva", 0xd0c9965f0ef05354ull, 67},
    {"tiresias", 0x9512b67f461cb413ull, 581},
    {"cbp-pp", 0x044a355693eb31b0ull, 71},
};

// Rebuilds the run digest from the trace alone, mirroring RunDigest's
// per-event recipe (tag, timestamp, operands) exactly as the pod-cluster
// replay test does. Kinds the digest does not observe are skipped.
std::uint64_t replay_digest(const obs::TraceSink& trace) {
  verify::RunDigest digest;
  const auto record = [&](std::uint64_t tag, const obs::TraceEvent& e) {
    digest.mix_u64(tag);
    digest.mix_u64(static_cast<std::uint64_t>(e.ts));
  };
  for (const obs::TraceEvent& e : trace.events()) {
    const auto a = static_cast<std::uint64_t>(e.a);
    const auto b = static_cast<std::uint64_t>(e.b);
    switch (e.kind) {
      case obs::EventKind::kPlace:
        record(0x01, e);
        digest.mix_u64(a);           // job
        digest.mix_u64(b);           // gpu
        digest.mix_double(e.value);  // working-set MB
        break;
      case obs::EventKind::kCrash:
        record(0x03, e);
        digest.mix_u64(a);
        break;
      case obs::EventKind::kRequeue:
        record(0x04, e);
        digest.mix_u64(a);
        break;
      case obs::EventKind::kComplete:
        record(0x05, e);
        digest.mix_u64(a);
        digest.mix_double(e.value);  // final progress
        break;
      case obs::EventKind::kEvict:
        record(0x07, e);
        digest.mix_u64(a);  // job
        digest.mix_u64(b);  // node
        break;
      case obs::EventKind::kNodeDown:
        record(0x08, e);
        digest.mix_u64(a);
        break;
      case obs::EventKind::kNodeUp:
        record(0x09, e);
        digest.mix_u64(a);
        break;
      default:
        break;  // submits, fault markers, scrapes: not digest-visible
    }
  }
  return digest.value();
}

TEST(DlDigest, FaultFreeGoldenDigests) {
  for (std::size_t i = 0; i < std::size(kFaultFree); ++i) {
    const Golden& g = kFaultFree[i];
    SCOPED_TRACE(g.policy);
    const auto r =
        run_dl_simulation(g.policy, small_cluster(), small_workload(), kSeed);
    EXPECT_EQ(r.run_digest, g.digest)
        << "digest drifted (actual 0x" << std::hex << r.run_digest << ")";
    const std::uint64_t figures = figure_digest(r);
    EXPECT_EQ(figures, kFaultFreeFigures[i])
        << "figure values drifted (actual 0x" << std::hex << figures << ")";
    EXPECT_EQ(r.digest_events, g.events);
    EXPECT_EQ(r.node_crashes, 0u);
    EXPECT_EQ(r.jobs_evicted, 0u);
  }
}

TEST(DlDigest, StormGoldenDigests) {
  for (const auto& g : kStorm) {
    SCOPED_TRACE(g.policy);
    DlRunOptions opt;
    opt.faults = storm_plan();
    const auto r = run_dl_simulation(g.policy, small_cluster(),
                                     small_workload(), kSeed, opt);
    EXPECT_EQ(r.run_digest, g.digest)
        << "storm digest drifted (actual 0x" << std::hex << r.run_digest
        << ")";
    EXPECT_EQ(r.digest_events, g.events);
    // The storm really happened: one crash, one recovery, real evictions.
    EXPECT_EQ(r.node_crashes, 1u);
    EXPECT_EQ(r.node_recoveries, 1u);
    EXPECT_GT(r.jobs_evicted, 0u);
    EXPECT_EQ(r.invariant_violations, 0u);
  }
}

TEST(DlDigest, EmptyFaultPlanMatchesPlanlessRun) {
  // Acceptance gate: attaching an empty FaultPlan must not perturb the run.
  for (const auto& g : kFaultFree) {
    SCOPED_TRACE(g.policy);
    const auto bare =
        run_dl_simulation(g.policy, small_cluster(), small_workload(), kSeed);
    DlRunOptions opt;  // default-constructed: empty plan
    const auto with_plan = run_dl_simulation(g.policy, small_cluster(),
                                             small_workload(), kSeed, opt);
    EXPECT_EQ(bare.run_digest, with_plan.run_digest);
    EXPECT_EQ(bare.avg_jct_h, with_plan.avg_jct_h);
    EXPECT_EQ(bare.digest_events, with_plan.digest_events);
  }
}

TEST(DlDigest, TracingLeavesTheDigestUntouched) {
  for (const auto& g : kStorm) {
    SCOPED_TRACE(g.policy);
    DlRunOptions traced_opt;
    traced_opt.faults = storm_plan();
    obs::TraceSink trace;
    traced_opt.trace = &trace;
    const auto traced = run_dl_simulation(g.policy, small_cluster(),
                                          small_workload(), kSeed, traced_opt);
    DlRunOptions untraced_opt;
    untraced_opt.faults = storm_plan();
    const auto untraced = run_dl_simulation(
        g.policy, small_cluster(), small_workload(), kSeed, untraced_opt);
    EXPECT_EQ(traced.run_digest, untraced.run_digest);
    EXPECT_EQ(traced.run_digest, g.digest);
  }
}

TEST(DlDigest, FaultedTraceReplaysTheDigestBitForBit) {
  // A node crash mid-run completes gracefully, tags kNodeDown/kEvict into
  // the digest, and the trace alone reproduces the digest.
  for (const auto& name : dl_policy_names()) {
    SCOPED_TRACE(name);
    DlRunOptions opt;
    opt.faults =
        fault::FaultPlan{}.node_crash(NodeId{1}, 30 * kMinute, 20 * kMinute);
    obs::TraceSink trace;
    opt.trace = &trace;
    const auto r = run_dl_simulation(name, small_cluster(), small_workload(),
                                     kSeed, opt);
    EXPECT_EQ(r.node_crashes, 1u);
    EXPECT_EQ(r.node_recoveries, 1u);
    EXPECT_EQ(trace.count(obs::EventKind::kNodeDown), 1u);
    EXPECT_EQ(trace.count(obs::EventKind::kNodeUp), 1u);
    EXPECT_EQ(trace.count(obs::EventKind::kEvict), r.jobs_evicted);
    EXPECT_GT(r.jobs_evicted, 0u);
    EXPECT_EQ(replay_digest(trace), r.run_digest)
        << "trace replay diverged from the live digest";
  }
}

TEST(DlDigest, StormReplayAcrossAllPolicies) {
  for (const auto& name : dl_policy_names()) {
    SCOPED_TRACE(name);
    DlRunOptions opt;
    opt.faults = storm_plan();
    obs::TraceSink trace;
    opt.trace = &trace;
    const auto r = run_dl_simulation(name, small_cluster(), small_workload(),
                                     kSeed, opt);
    EXPECT_FALSE(trace.empty());
    EXPECT_EQ(replay_digest(trace), r.run_digest);
  }
}

}  // namespace
}  // namespace knots::dlsim
