#include "verify/run_digest.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "knots/experiment.hpp"
#include "sched/registry.hpp"

namespace knots::verify {
namespace {

TEST(Fnv1a64, KnownAnswers) {
  // Reference vectors from the FNV specification (Noll).
  EXPECT_EQ(fnv1a64(nullptr, 0), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST(RunDigest, MixingIsOrderSensitive) {
  RunDigest ab;
  ab.mix_u64(1);
  ab.mix_u64(2);
  RunDigest ba;
  ba.mix_u64(2);
  ba.mix_u64(1);
  EXPECT_NE(ab.value(), ba.value());
}

TEST(RunDigest, NegativeZeroNormalized) {
  RunDigest pos;
  pos.mix_double(0.0);
  RunDigest neg;
  neg.mix_double(-0.0);
  EXPECT_EQ(pos.value(), neg.value());
}

TEST(RunDigest, EventKindsAreDistinguished) {
  // Same operand folded through different event kinds must not collide.
  cluster::ClusterConfig cfg;
  cfg.nodes = 1;
  class Noop final : public cluster::Scheduler {
   public:
    [[nodiscard]] std::string name() const override { return "noop"; }
    void on_schedule(cluster::SchedulingContext&) override {}
  } sched;
  cluster::Cluster cl(cfg, sched);

  RunDigest crash;
  crash.on_crash(cl, PodId{0});
  RunDigest requeue;
  requeue.on_requeue(cl, PodId{0});
  RunDigest park;
  park.on_park(cl, GpuId{0});
  EXPECT_NE(crash.value(), requeue.value());
  EXPECT_NE(crash.value(), park.value());
  EXPECT_NE(requeue.value(), park.value());
  EXPECT_EQ(crash.events(), 1u);
}

ExperimentConfig golden_config(sched::SchedulerKind kind) {
  ExperimentConfig cfg = default_experiment(1, kind);
  cfg.cluster.nodes = 4;
  cfg.workload.duration = 30 * kSec;
  return cfg;  // Default seed (42), default mix 1.
}

// Golden digests for the pinned config above, one per scheduler kind in
// kAllSchedulers order. These lock in the exact decision sequence of the
// current implementation: any nondeterminism (thread pools, unordered-map
// iteration) or accidental behaviour change fails here loudly instead of
// silently shifting a figure.
//
// To regenerate after an *intentional* behaviour change: run this test and
// copy the "actual" values from the failure output into the table, then
// record the change in EXPERIMENTS.md.
//
// The run digest folds decisions only, so each row also pins the figure
// values the report derives from the run (utilisation, QoS, power, energy,
// JCT and LC latency): a change to a sampling cadence or a power model
// that leaves every decision in place still fails here.
struct GoldenDigest {
  sched::SchedulerKind kind;
  std::uint64_t digest;
  std::uint64_t figures;
};

void mix_percentiles(RunDigest& d, const UtilPercentiles& u) {
  d.mix_double(u.p50);
  d.mix_double(u.p90);
  d.mix_double(u.p99);
  d.mix_double(u.max);
}

/// FNV-1a fold of the report's figure values, in field order.
std::uint64_t figure_digest(const ExperimentReport& r) {
  RunDigest d;
  for (const UtilPercentiles& u : r.per_gpu) mix_percentiles(d, u);
  mix_percentiles(d, r.cluster_wide);
  for (const double cov : r.per_gpu_cov) d.mix_double(cov);
  d.mix_u64(r.queries);
  d.mix_u64(r.qos_violations);
  d.mix_double(r.violations_per_kilo);
  d.mix_double(r.mean_power_watts);
  d.mix_double(r.energy_joules);
  d.mix_u64(r.crashes);
  d.mix_double(r.mean_jct_s);
  d.mix_double(r.median_jct_s);
  d.mix_double(r.p99_jct_s);
  d.mix_double(r.lc_p50_ms);
  d.mix_double(r.lc_p99_ms);
  d.mix_u64(r.pods_total);
  d.mix_u64(r.pods_completed);
  d.mix_u64(r.ticks);
  d.mix_u64(r.events);
  return d.value();
}

TEST(RunDigest, GoldenPerScheduler) {
  const GoldenDigest golden[] = {
      {sched::SchedulerKind::kUniform, 0xd0c2a2db96af286dull,
       0x7993d04551fe5041ull},
      {sched::SchedulerKind::kResourceAgnostic, 0x07884542fa949d9eull,
       0x4b68eda70ae7f0f9ull},
      {sched::SchedulerKind::kCbp, 0x7173dae2bf4b9374ull,
       0xbb1771255fba2d26ull},
      {sched::SchedulerKind::kPeakPrediction, 0x86e8b45560a1a94cull,
       0xef60c616f7497e49ull},
  };
  for (const auto& g : golden) {
    const auto report = run_experiment(golden_config(g.kind));
    EXPECT_EQ(report.run_digest, g.digest)
        << "scheduler " << sched::to_string(g.kind)
        << " digest drifted (actual 0x" << std::hex << report.run_digest
        << ")";
    const std::uint64_t figures = figure_digest(report);
    EXPECT_EQ(figures, g.figures)
        << "scheduler " << sched::to_string(g.kind)
        << " figure values drifted (actual 0x" << std::hex << figures << ")";
  }
}

TEST(RunDigest, DigestReactsToSeed) {
  auto base = golden_config(sched::SchedulerKind::kCbp);
  const auto a = run_experiment(base);
  base.seed = 43;
  const auto b = run_experiment(base);
  EXPECT_NE(a.run_digest, 0u);
  EXPECT_NE(a.run_digest, b.run_digest);
}

TEST(RunDigest, DigestReactsToScheduler) {
  const auto uniform =
      run_experiment(golden_config(sched::SchedulerKind::kUniform));
  const auto cbp = run_experiment(golden_config(sched::SchedulerKind::kCbp));
  EXPECT_NE(uniform.run_digest, cbp.run_digest);
}

}  // namespace
}  // namespace knots::verify
