// Datacenter-scale replay (`ctest -L scale`): a 1,000-node cluster at the
// paper's pod density must actually run — pods arrive, ticks advance, the
// invariant audit stays clean — and replay bit for bit from its config and
// seed.
#include <gtest/gtest.h>

#include "expect_identical.hpp"
#include "knots/experiment.hpp"
#include "sched/registry.hpp"

namespace knots {
namespace {

TEST(ScaleReplay, ThousandNodeRunReplays) {
  ExperimentConfig cfg =
      default_experiment(1, sched::SchedulerKind::kPeakPrediction);
  cfg.cluster.nodes = 1000;
  // Bound telemetry memory: 1k nodes at the default retention would hold
  // gigabytes of ring buffers; 2048 rows comfortably cover the widest
  // scheduler lookback window (500 rows).
  cfg.cluster.telemetry_retention = 2048;
  cfg.workload.duration = 5 * kSec;
  cfg.workload.batch_rate_scale *= 20.0;
  cfg.workload.lc_rate_scale *= 20.0;

  const ExperimentReport first = run_experiment(cfg);
  EXPECT_GT(first.pods_total, 0u);
  EXPECT_GT(first.ticks, 0u);
  EXPECT_EQ(first.invariant_violations, 0u);
  expect_identical(first, run_experiment(cfg));
}

}  // namespace
}  // namespace knots
