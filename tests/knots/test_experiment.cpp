#include "knots/experiment.hpp"

#include <gtest/gtest.h>

#include "knots/kube_knots.hpp"
#include "workload/djinn_tonic.hpp"

namespace knots {
namespace {

ExperimentConfig tiny(int mix, sched::SchedulerKind kind) {
  ExperimentConfig cfg = default_experiment(mix, kind);
  cfg.cluster.nodes = 4;
  cfg.workload.duration = 30 * kSec;
  return cfg;
}

TEST(Config, DefaultsMatchPaperTestbed) {
  const auto cfg =
      default_experiment(1, sched::SchedulerKind::kPeakPrediction);
  EXPECT_EQ(cfg.cluster.nodes, 10);
  EXPECT_EQ(cfg.cluster.gpus_per_node, 1);
  EXPECT_DOUBLE_EQ(cfg.cluster.node_spec.gpu.memory_mb, 16384.0);
  const auto hw = hardware_config();
  EXPECT_EQ(hw.gpu, "P100 (16GB)");
  EXPECT_EQ(hw.cpu, "Xeon E5-2670");
  const auto sw = software_config();
  EXPECT_EQ(sw.kubernetes, "1.9.3");
  EXPECT_EQ(sw.tensorflow, "1.8");
}

// Builder::lanes(int) is a shim for older callers: the tick is
// single-threaded, lanes(1) changes nothing and any other count aborts.
TEST(Config, LanesShimOfOneChangesNothing) {
  const auto build = [](bool shim) {
    ExperimentConfig::Builder b;
    b.nodes(4).duration(30 * kSec);
    if (shim) b.lanes(1);
    return b.build();
  };
  EXPECT_EQ(run_experiment(build(true)).run_digest,
            run_experiment(build(false)).run_digest);
}

TEST(ConfigDeathTest, LanesShimRejectsAnyOtherCount) {
  EXPECT_DEATH(ExperimentConfig::Builder{}.lanes(2), "lanes must be 1");
  EXPECT_DEATH(ExperimentConfig::Builder{}.lanes(0), "lanes must be 1");
}

TEST(Experiment, ReportFieldsConsistent) {
  const auto report =
      run_experiment(tiny(1, sched::SchedulerKind::kPeakPrediction));
  EXPECT_EQ(report.scheduler, "PP");
  EXPECT_EQ(report.mix_id, 1);
  EXPECT_EQ(report.per_gpu.size(), 4u);
  EXPECT_EQ(report.per_gpu_cov.size(), 4u);
  EXPECT_EQ(report.pods_completed, report.pods_total);
  EXPECT_GE(report.cluster_wide.p99, report.cluster_wide.p50);
  EXPECT_GE(report.cluster_wide.max, report.cluster_wide.p99);
  EXPECT_GT(report.energy_joules, 0);
  EXPECT_NEAR(report.violations_per_kilo,
              1000.0 * static_cast<double>(report.qos_violations) /
                  static_cast<double>(report.queries),
              1e-9);
}

TEST(Experiment, DeterministicAcrossCalls) {
  const auto a = run_experiment(tiny(2, sched::SchedulerKind::kCbp));
  const auto b = run_experiment(tiny(2, sched::SchedulerKind::kCbp));
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.qos_violations, b.qos_violations);
  EXPECT_DOUBLE_EQ(a.cluster_wide.p50, b.cluster_wide.p50);
}

TEST(Experiment, SweepRunsEveryScheduler) {
  SweepGrid grid;
  grid.schedulers = {sched::SchedulerKind::kUniform,
                     sched::SchedulerKind::kResourceAgnostic,
                     sched::SchedulerKind::kCbp,
                     sched::SchedulerKind::kPeakPrediction};
  const auto results = run_sweep(tiny(1, sched::SchedulerKind::kUniform), grid);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].report.scheduler, "Uniform");
  EXPECT_EQ(results[1].report.scheduler, "Res-Ag");
  EXPECT_EQ(results[2].report.scheduler, "CBP");
  EXPECT_EQ(results[3].report.scheduler, "PP");
}

TEST(Experiment, SweepMatchesSerialRuns) {
  const auto base = tiny(1, sched::SchedulerKind::kUniform);
  SweepGrid grid;
  grid.schedulers = {sched::SchedulerKind::kCbp};
  // Empty grid.seeds = "use the base config's seed" — the sweep slot must
  // reproduce a plain serial run of the same config bit-for-bit.
  const auto sweep = run_sweep(base, grid);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep[0].seed, base.seed);
  ExperimentConfig serial = base;
  serial.scheduler = sched::SchedulerKind::kCbp;
  const auto direct = run_experiment(serial);
  EXPECT_DOUBLE_EQ(sweep[0].report.energy_joules, direct.energy_joules);
  EXPECT_EQ(sweep[0].report.qos_violations, direct.qos_violations);
}

TEST(Experiment, SweepGridSizeAndOrdering) {
  SweepGrid grid;
  grid.schedulers = {sched::SchedulerKind::kUniform,
                     sched::SchedulerKind::kCbp};
  grid.seeds = {42, 7};
  grid.load_scales = {1.0, 0.5};
  EXPECT_EQ(grid.size(), 8u);

  const auto results = run_sweep(tiny(1, sched::SchedulerKind::kUniform),
                                 grid, /*threads=*/3);
  ASSERT_EQ(results.size(), 8u);
  // Scheduler-major, then seed, then load scale — independent of which
  // worker thread finished first.
  std::size_t i = 0;
  for (auto kind : grid.schedulers) {
    for (auto seed : grid.seeds) {
      for (double load : grid.load_scales) {
        EXPECT_EQ(results[i].scheduler, kind) << "slot " << i;
        EXPECT_EQ(results[i].seed, seed) << "slot " << i;
        EXPECT_DOUBLE_EQ(results[i].load_scale, load) << "slot " << i;
        EXPECT_GT(results[i].report.ticks, 0u) << "slot " << i;
        ++i;
      }
    }
  }
}

TEST(Experiment, SweepSlotsMatchSerialRunsExactly) {
  const auto base = tiny(1, sched::SchedulerKind::kUniform);
  SweepGrid grid;
  grid.schedulers = {sched::SchedulerKind::kCbp,
                     sched::SchedulerKind::kPeakPrediction};
  grid.seeds = {42, 1234};
  const auto results = run_sweep(base, grid);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    ExperimentConfig serial = base;
    serial.scheduler = r.scheduler;
    serial.seed = r.seed;
    const auto direct = run_experiment(serial);
    // Bit-identical: parallel dispatch must not perturb the simulation.
    EXPECT_EQ(r.report.run_digest, direct.run_digest);
    EXPECT_DOUBLE_EQ(r.report.energy_joules, direct.energy_joules);
    EXPECT_EQ(r.report.ticks, direct.ticks);
  }
}

TEST(Experiment, SweepLoadScaleChangesWorkload) {
  const auto base = tiny(1, sched::SchedulerKind::kUniform);
  SweepGrid grid;
  grid.schedulers = {sched::SchedulerKind::kUniform};
  grid.load_scales = {1.0, 3.0};
  const auto results = run_sweep(base, grid);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[1].report.pods_total, results[0].report.pods_total);
}

TEST(Experiment, ReportCountsTicks) {
  const auto report =
      run_experiment(tiny(1, sched::SchedulerKind::kUniform));
  // 30 s duration at a 10 ms tick → at least 3000 quanta before drain.
  EXPECT_GE(report.ticks, 3000u);
}

TEST(KubeKnots, FacadeSubmitAndRun) {
  KubeKnots knots(tiny(1, sched::SchedulerKind::kPeakPrediction));

  workload::PodSpec pod;
  pod.app = "face";
  pod.klass = workload::PodClass::kLatencyCritical;
  pod.arrival = 1 * kSec;
  pod.batch_size = 4;
  pod.profile = workload::inference_profile(workload::Service::kFace, 4);
  pod.requested_mb = 2000;
  pod.qos_latency = 150 * kMsec;
  knots.submit(pod);

  const auto report = knots.run();
  EXPECT_EQ(report.pods_total, 1u);
  EXPECT_EQ(report.pods_completed, 1u);
  EXPECT_EQ(report.queries, 1u);
  // Uncontended warm-started query meets its deadline.
  EXPECT_EQ(report.qos_violations, 0u);
  EXPECT_EQ(knots.cluster().completed_count(), 1u);
}

TEST(KubeKnots, MixWorkloadRunsThroughFacade) {
  KubeKnots knots(tiny(3, sched::SchedulerKind::kCbp));
  knots.submit_mix_workload();
  const auto report = knots.run();
  EXPECT_GT(report.pods_total, 0u);
  EXPECT_EQ(report.pods_completed, report.pods_total);
  EXPECT_EQ(report.mix_id, 3);
}

}  // namespace
}  // namespace knots
