#include "verify/invariant_checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "knots/experiment.hpp"
#include "knots/kube_knots.hpp"
#include "verify/run_digest.hpp"

namespace knots::verify {
namespace {

/// Scheduler that never places anything (the checker drives state by hand).
class NoopScheduler final : public cluster::Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "noop"; }
  void on_schedule(cluster::SchedulingContext&) override {}
};

cluster::ClusterConfig one_gpu_config() {
  cluster::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.gpus_per_node = 1;
  return cfg;
}

bool has_category(const InvariantChecker& checker, std::string_view category) {
  return std::any_of(checker.violations().begin(), checker.violations().end(),
                     [&](const Violation& v) { return v.category == category; });
}

TEST(InvariantChecker, CleanClusterPassesAudit) {
  NoopScheduler sched;
  cluster::Cluster cl(one_gpu_config(), sched);
  InvariantChecker checker(InvariantOptions{.provision_ceiling_ratio = 1.0,
                                            .fatal = false});
  checker.on_tick_end(cl);
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(checker.checks_run(), 1u);
  EXPECT_TRUE(checker.violations().empty());
}

TEST(InvariantChecker, DetectsInjectedCapacityViolation) {
  NoopScheduler sched;
  cluster::Cluster cl(one_gpu_config(), sched);
  auto& dev = cl.device(GpuId{0});
  // Two overcommitted claims whose combined *usage* also blows past the
  // 16 GB physical device — exactly the situation a buggy scheduler (or a
  // broken crash path) would leave behind at a tick boundary.
  ASSERT_TRUE(dev.attach(PodId{0}, 10000.0));
  ASSERT_TRUE(dev.attach(PodId{1}, 10000.0));
  (void)dev.set_usage(PodId{0}, gpu::Usage{0.5, 9000.0, 0, 0});
  (void)dev.set_usage(PodId{1}, gpu::Usage{0.4, 9000.0, 0, 0});

  InvariantChecker checker(InvariantOptions{.provision_ceiling_ratio = 1.0,
                                            .fatal = false});
  checker.on_tick_end(cl);
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(has_category(checker, "gpu-memory"));
  EXPECT_TRUE(has_category(checker, "gpu-provision"));
  for (const auto& v : checker.violations()) {
    EXPECT_EQ(v.time, cl.now());
  }
}

TEST(InvariantChecker, ProvisionCeilingDisabledSkipsOvercommitClaims) {
  NoopScheduler sched;
  cluster::Cluster cl(one_gpu_config(), sched);
  auto& dev = cl.device(GpuId{0});
  // Claims overcommit but usage stays physical: legal for Res-Ag.
  ASSERT_TRUE(dev.attach(PodId{0}, 12000.0));
  ASSERT_TRUE(dev.attach(PodId{1}, 12000.0));
  ASSERT_TRUE(dev.set_usage(PodId{0}, gpu::Usage{0.3, 4000.0, 0, 0}));
  ASSERT_TRUE(dev.set_usage(PodId{1}, gpu::Usage{0.3, 4000.0, 0, 0}));

  InvariantChecker lenient(InvariantOptions{.provision_ceiling_ratio = 0.0,
                                            .fatal = false});
  lenient.on_tick_end(cl);
  EXPECT_TRUE(lenient.ok());

  InvariantChecker strict(InvariantOptions{.provision_ceiling_ratio = 1.0,
                                           .fatal = false});
  strict.on_tick_end(cl);
  EXPECT_FALSE(strict.ok());
  EXPECT_TRUE(has_category(strict, "gpu-provision"));
  EXPECT_FALSE(has_category(strict, "gpu-memory"));
}

/// One GPU, tenant 1 capped (which switches the ledger on), and one pending
/// pod per entry of `tenants`, pod i owned by tenants[i].
cluster::Cluster& tenant_cluster(std::unique_ptr<cluster::Cluster>& holder,
                                 cluster::Scheduler& sched,
                                 std::vector<int> tenants) {
  cluster::ClusterConfig cfg = one_gpu_config();
  cfg.tenant_quotas = {
      cluster::TenantQuotaSpec{.tenant = 1, .provision_cap_mb = 8000.0}};
  holder = std::make_unique<cluster::Cluster>(cfg, sched);
  std::vector<workload::PodSpec> pods;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    workload::PodSpec spec;
    spec.id = PodId{static_cast<std::int32_t>(i)};
    spec.app = "probe";
    spec.arrival = 10 * kSec;
    spec.tenant = tenants[i];
    pods.push_back(std::move(spec));
  }
  holder->load(std::move(pods));
  return *holder;
}

std::vector<std::string> messages_of(const InvariantChecker& checker,
                                     std::string_view category) {
  std::vector<std::string> out;
  for (const auto& v : checker.violations()) {
    if (v.category == category) out.push_back(v.message);
  }
  return out;
}

TEST(InvariantChecker, DetectsInjectedTenantChargeMismatch) {
  // A tenant pod attached behind the cluster's back holds memory its
  // ledger row was never charged for.
  NoopScheduler sched;
  std::unique_ptr<cluster::Cluster> holder;
  auto& cl = tenant_cluster(holder, sched, {1});
  ASSERT_TRUE(cl.device(GpuId{0}).attach(PodId{0}, 4000.0));
  InvariantChecker checker(InvariantOptions{.fatal = false});
  checker.on_tick_end(cl);
  EXPECT_EQ(messages_of(checker, "tenant-accounting"),
            std::vector<std::string>{
                "tenant 1 ledger charge 0 MB != resident sum 4000 MB"});
  EXPECT_TRUE(messages_of(checker, "tenant-quota").empty());
}

TEST(InvariantChecker, DetectsInjectedResidentsWithoutLedgerRow) {
  // Tenant 2 has no quota and was never charged, so the ledger has no row
  // for it; its resident is a dropped charge. The row reports come first,
  // in ascending tenant order, then the row-less tenants.
  NoopScheduler sched;
  std::unique_ptr<cluster::Cluster> holder;
  auto& cl = tenant_cluster(holder, sched, {2, 1, 2});
  auto& dev = cl.device(GpuId{0});
  ASSERT_TRUE(dev.attach(PodId{0}, 1500.0));
  ASSERT_TRUE(dev.attach(PodId{1}, 2500.0));
  ASSERT_TRUE(dev.attach(PodId{2}, 1250.5));
  InvariantChecker checker(InvariantOptions{.fatal = false});
  checker.on_tick_end(cl);
  EXPECT_EQ(messages_of(checker, "tenant-accounting"),
            (std::vector<std::string>{
                "tenant 1 ledger charge 0 MB != resident sum 2500 MB",
                "tenant 2 holds 2750.5 MB of residents but has no ledger "
                "row"}));
}

TEST(InvariantChecker, DetectsStalledClock) {
  NoopScheduler sched;
  cluster::Cluster cl(one_gpu_config(), sched);
  InvariantChecker checker(InvariantOptions{.fatal = false});
  checker.on_tick_end(cl);
  EXPECT_TRUE(checker.ok());
  // Second audit at the same simulated instant: the tick clock stalled.
  checker.on_tick_end(cl);
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(has_category(checker, "time-monotonicity"));
}

TEST(InvariantChecker, RecordingCapKeepsCounting) {
  NoopScheduler sched;
  cluster::Cluster cl(one_gpu_config(), sched);
  InvariantChecker checker(
      InvariantOptions{.fatal = false, .max_recorded = 2});
  checker.on_tick_end(cl);
  for (int i = 0; i < 5; ++i) checker.on_tick_end(cl);  // 5 stalled ticks.
  EXPECT_EQ(checker.violation_count(), 5u);
  EXPECT_EQ(checker.violations().size(), 2u);
}

TEST(InvariantCheckerDeathTest, FatalModeAbortsOnViolation) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  NoopScheduler sched;
  cluster::Cluster cl(one_gpu_config(), sched);
  auto& dev = cl.device(GpuId{0});
  ASSERT_TRUE(dev.attach(PodId{0}, 1000.0));
  (void)dev.set_usage(PodId{0}, gpu::Usage{0.1, 20000.0, 0, 0});
  InvariantChecker checker(InvariantOptions{.fatal = true});
  EXPECT_DEATH(checker.on_tick_end(cl), "gpu-memory");
}

TEST(InvariantChecker, ExperimentRunsAreViolationFree) {
  // The facade wires the checker into every experiment; a full tiny run
  // across mixes must audit thousands of ticks without a single breach.
  for (int mix : {1, 2}) {
    ExperimentConfig cfg =
        default_experiment(mix, sched::SchedulerKind::kPeakPrediction);
    cfg.cluster.nodes = 4;
    cfg.workload.duration = 20 * kSec;
    const auto report = run_experiment(cfg);
    EXPECT_GT(report.invariant_checks, 100u) << "mix " << mix;
    EXPECT_EQ(report.invariant_violations, 0u) << "mix " << mix;
    EXPECT_TRUE(report.invariant_messages.empty()) << "mix " << mix;
  }
}

TEST(InvariantChecker, FacadeExposesVerifierState) {
  ExperimentConfig cfg =
      default_experiment(1, sched::SchedulerKind::kUniform);
  cfg.cluster.nodes = 2;
  cfg.workload.duration = 10 * kSec;
  KubeKnots knots(cfg);
  knots.submit_mix_workload();
  const auto report = knots.run();
  EXPECT_EQ(knots.verifier().checks_run(), report.invariant_checks);
  EXPECT_EQ(knots.verifier().violation_count(), report.invariant_violations);
  EXPECT_EQ(knots.digest().value(), report.run_digest);
  EXPECT_GT(knots.digest().events(), 0u);
}

}  // namespace
}  // namespace knots::verify
