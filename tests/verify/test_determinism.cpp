// Whole-run determinism: identical (config, seed) must reproduce every
// report field bit-for-bit, sequentially and under the sweep thread pool.
#include <gtest/gtest.h>

#include "expect_identical.hpp"
#include "knots/experiment.hpp"
#include "sched/registry.hpp"

namespace knots {
namespace {

ExperimentConfig tiny(int mix, sched::SchedulerKind kind) {
  ExperimentConfig cfg = default_experiment(mix, kind);
  cfg.cluster.nodes = 4;
  cfg.workload.duration = 30 * kSec;
  return cfg;
}

TEST(Determinism, RepeatedRunsFieldIdentical) {
  for (sched::SchedulerKind kind : sched::kAllSchedulers) {
    SCOPED_TRACE(sched::to_string(kind));
    const auto cfg = tiny(1, kind);
    expect_identical(run_experiment(cfg), run_experiment(cfg));
  }
}

TEST(Determinism, SweepMatchesSequentialRuns) {
  const auto base = tiny(2, sched::SchedulerKind::kUniform);
  SweepGrid grid;
  grid.schedulers.assign(sched::kAllSchedulers.begin(),
                         sched::kAllSchedulers.end());
  const auto sweep = run_sweep(base, grid);
  ASSERT_EQ(sweep.size(), grid.schedulers.size());
  for (std::size_t i = 0; i < grid.schedulers.size(); ++i) {
    SCOPED_TRACE(sched::to_string(grid.schedulers[i]));
    ExperimentConfig cfg = base;
    cfg.scheduler = grid.schedulers[i];
    expect_identical(sweep[i].report, run_experiment(cfg));
  }
}

TEST(Determinism, SweepIsRepeatable) {
  // Thread-pool scheduling order must never leak into results.
  const auto base = tiny(3, sched::SchedulerKind::kCbp);
  SweepGrid grid;
  grid.schedulers.assign(sched::kAllSchedulers.begin(),
                         sched::kAllSchedulers.end());
  const auto first = run_sweep(base, grid);
  const auto second = run_sweep(base, grid);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(sched::to_string(grid.schedulers[i]));
    expect_identical(first[i].report, second[i].report);
  }
}

TEST(Determinism, SeedPerturbsResults) {
  // Sanity check that the comparison above has teeth: a different seed
  // must produce a different decision sequence.
  auto cfg = tiny(1, sched::SchedulerKind::kPeakPrediction);
  const auto a = run_experiment(cfg);
  cfg.seed = cfg.seed + 1;
  const auto b = run_experiment(cfg);
  EXPECT_NE(a.run_digest, b.run_digest);
}

}  // namespace
}  // namespace knots
