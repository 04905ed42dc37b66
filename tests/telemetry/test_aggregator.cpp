#include "telemetry/aggregator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "telemetry/sampler.hpp"

namespace knots::telemetry {
namespace {

class AggregatorTest : public ::testing::Test {
 protected:
  AggregatorTest() {
    gpu::NodeSpec spec;
    spec.gpus_per_node = 1;
    for (int n = 0; n < 3; ++n) {
      nodes_.push_back(std::make_unique<gpu::GpuNode>(NodeId{n}, spec, n));
      dbs_.push_back(std::make_unique<TimeSeriesDb>(GpuId{n}, 1));
      agg_.register_node(*nodes_[static_cast<std::size_t>(n)],
                         *dbs_[static_cast<std::size_t>(n)]);
    }
  }

  void sample_all(SimTime now) {
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      HeartbeatSampler s(*nodes_[n], *dbs_[n], Rng(n + 1), 0.0);
      s.sample(now);
    }
  }

  std::vector<std::unique_ptr<gpu::GpuNode>> nodes_;
  std::vector<std::unique_ptr<TimeSeriesDb>> dbs_;
  UtilizationAggregator agg_;
};

TEST_F(AggregatorTest, SnapshotCoversAllGpus) {
  sample_all(0);
  const auto snap = agg_.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(agg_.node_count(), 3u);
  for (const auto& v : snap) {
    EXPECT_DOUBLE_EQ(v.sm_util, 0.0);
    EXPECT_FALSE(v.parked);
  }
}

TEST_F(AggregatorTest, SnapshotReflectsTelemetry) {
  ASSERT_TRUE(nodes_[1]->gpu(0).attach(PodId{1}, 1000));
  EXPECT_TRUE(nodes_[1]->gpu(0).set_usage(PodId{1}, {0.7, 8192, 0, 0}));
  sample_all(5);
  const auto snap = agg_.snapshot();
  EXPECT_DOUBLE_EQ(snap[1].sm_util, 0.7);
  EXPECT_NEAR(snap[1].mem_used_mb, 8192, 1e-6);
  EXPECT_NEAR(snap[1].free_mem_mb,
              nodes_[1]->gpu(0).spec().memory_mb - 8192, 1e-6);
  EXPECT_EQ(snap[1].residents, 1);
}

TEST_F(AggregatorTest, ActiveSortedByFreeMemoryDescending) {
  ASSERT_TRUE(nodes_[0]->gpu(0).attach(PodId{1}, 100));
  EXPECT_TRUE(nodes_[0]->gpu(0).set_usage(PodId{1}, {0.1, 12000, 0, 0}));
  ASSERT_TRUE(nodes_[2]->gpu(0).attach(PodId{2}, 100));
  EXPECT_TRUE(nodes_[2]->gpu(0).set_usage(PodId{2}, {0.1, 4000, 0, 0}));
  sample_all(9);
  const auto sorted = agg_.active_sorted_by_free_memory();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].node.value, 1);  // empty node has most free memory
  EXPECT_EQ(sorted[1].node.value, 2);
  EXPECT_EQ(sorted[2].node.value, 0);
}

TEST_F(AggregatorTest, ParkedGpusExcludedFromActiveList) {
  nodes_[0]->gpu(0).set_parked(true);
  sample_all(1);
  const auto sorted = agg_.active_sorted_by_free_memory();
  EXPECT_EQ(sorted.size(), 2u);
  for (const auto& v : sorted) EXPECT_NE(v.node.value, 0);
  // But the raw snapshot still shows it, flagged.
  EXPECT_TRUE(agg_.snapshot()[0].parked);
}

TEST_F(AggregatorTest, WindowedSeriesQuery) {
  for (SimTime t = 0; t <= 100; t += 10) sample_all(t);
  const auto window =
      agg_.window(GpuId{1}, Metric::kSmUtil, /*now=*/100, /*window=*/35);
  EXPECT_EQ(window.size(), 4u);  // t = 70, 80, 90, 100
  EXPECT_TRUE(agg_.window(GpuId{99}, Metric::kSmUtil, 100, 35).empty());
}

TEST_F(AggregatorTest, WindowIntoMatchesAllocatingWindow) {
  for (SimTime t = 0; t <= 100; t += 10) sample_all(t);
  const auto expect =
      agg_.window(GpuId{1}, Metric::kSmUtil, /*now=*/100, /*window=*/35);

  std::vector<double> scratch = {99.0, 98.0};  // must be cleared, not appended
  agg_.window_into(GpuId{1}, Metric::kSmUtil, 100, 35, scratch);
  EXPECT_EQ(scratch, expect);

  agg_.window_into(GpuId{99}, Metric::kSmUtil, 100, 35, scratch);
  EXPECT_TRUE(scratch.empty());
}

TEST_F(AggregatorTest, SnapshotIntoReusesBuffer) {
  sample_all(0);
  std::vector<GpuView> out;
  agg_.snapshot_into(out);
  EXPECT_EQ(out, agg_.snapshot());
  const auto* data = out.data();
  agg_.snapshot_into(out);  // warmed buffer: no reallocation
  EXPECT_EQ(out.data(), data);
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(AggregatorTest, ActiveSortedCacheStableAcrossRepeatedCalls) {
  sample_all(0);
  const auto& first = agg_.active_sorted_by_free_memory();
  const auto snapshot_before = first;
  // No telemetry change between calls: the cached list is returned as-is.
  const auto& second = agg_.active_sorted_by_free_memory();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second, snapshot_before);
}

TEST_F(AggregatorTest, ActiveSortedCacheReactsToTelemetryWrites) {
  sample_all(0);
  auto before = agg_.active_sorted_by_free_memory();
  // Node 0's GPU fills up; after the next heartbeat it must sort last.
  ASSERT_TRUE(nodes_[0]->gpu(0).attach(PodId{1}, 100));
  EXPECT_TRUE(nodes_[0]->gpu(0).set_usage(PodId{1}, {0.5, 15000, 0, 0}));
  sample_all(10);
  const auto& after = agg_.active_sorted_by_free_memory();
  EXPECT_NE(after, before);
  EXPECT_EQ(after.back().node.value, 0);
}

TEST_F(AggregatorTest, ActiveSortedCacheReactsToResidentMove) {
  sample_all(0);
  const auto* data = agg_.active_sorted_by_free_memory().data();
  // A placement with no heartbeat since: the listed view's resident count
  // follows the device, in place.
  ASSERT_TRUE(nodes_[2]->gpu(0).attach(PodId{1}, 100));
  const auto& after = agg_.active_sorted_by_free_memory();
  EXPECT_EQ(after.data(), data);
  for (const auto& v : after) {
    EXPECT_EQ(v.residents, v.node.value == 2 ? 1 : 0);
  }
}

TEST_F(AggregatorTest, ActiveSortedCacheReactsToParkFlip) {
  sample_all(0);
  EXPECT_EQ(agg_.active_sorted_by_free_memory().size(), 3u);
  // Parking is visible in the node object immediately — no heartbeat
  // between the two calls, mirroring a scheduler parking mid-tick.
  nodes_[1]->gpu(0).set_parked(true);
  EXPECT_EQ(agg_.active_sorted_by_free_memory().size(), 2u);
  nodes_[1]->gpu(0).set_parked(false);
  EXPECT_EQ(agg_.active_sorted_by_free_memory().size(), 3u);
}

// Algorithm 1's cached, lane-merged list against its definition: a stable
// sort by free memory (descending) of snapshot()'s unparked views. Seeded
// random heartbeats (some nodes silent, so staleness flips), attach/detach,
// park/unpark and ECC retirement under the cluster's device-epoch
// discipline, with and without the per-tick lane refresh; the two must agree
// in every GpuView field.
TEST(AggregatorProperty, ActiveSortedIsStableSortOfSnapshot) {
  constexpr int kNodes = 12;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    Rng rng(77 + lanes);
    gpu::NodeSpec spec;
    spec.gpus_per_node = 2;
    std::vector<std::unique_ptr<gpu::GpuNode>> nodes;
    std::vector<std::unique_ptr<TimeSeriesDb>> dbs;
    std::vector<HeartbeatSampler> samplers;
    UtilizationAggregator agg;
    for (int n = 0; n < kNodes; ++n) {
      nodes.push_back(std::make_unique<gpu::GpuNode>(NodeId{n}, spec, 2 * n));
      dbs.push_back(std::make_unique<TimeSeriesDb>(GpuId{2 * n}, 2));
      agg.register_node(*nodes.back(), *dbs.back());
    }
    for (int n = 0; n < kNodes; ++n) {
      const auto i = static_cast<std::size_t>(n);
      samplers.emplace_back(*nodes[i], *dbs[i], Rng(100 + i), 0.02);
    }
    std::uint64_t epoch = 0;
    agg.set_live_epoch(&epoch);
    agg.set_staleness_horizon(3);
    std::vector<std::uint32_t> lane_of;
    for (int n = 0; n < kNodes; ++n) {
      lane_of.push_back(static_cast<std::uint32_t>(n) %
                        static_cast<std::uint32_t>(lanes));
    }
    agg.set_lane_partition(lane_of, lanes);

    std::vector<std::vector<PodId>> residents(2 * kNodes);
    std::int32_t next_pod = 1;
    SimTime now = 0;
    for (int op = 0; op < 1500; ++op) {
      const auto g =
          static_cast<std::size_t>(rng.uniform_int(0, 2 * kNodes - 1));
      gpu::GpuDevice& dev = nodes[g / 2]->gpu(g % 2);
      const double dice = rng.uniform();
      if (dice < 0.2) {
        // A tick's telemetry phase, as the cluster runs it.
        ++now;
        agg.begin_tick(now);
        for (auto& sampler : samplers) {
          if (rng.chance(0.8)) sampler.sample(now);
        }
        // Standalone writers may skip the refresh; queries must still see
        // their rows.
        if (rng.chance(0.8)) {
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            agg.refresh_lane(lane);
          }
        }
      } else if (dice < 0.45) {
        const PodId pod{next_pod++};
        if (dev.attach(pod, rng.uniform(0, 4000))) {
          (void)dev.set_usage(pod, {rng.uniform(0, 0.4), rng.uniform(0, 6000),
                                    0, 0});
          residents[g].push_back(pod);
          ++epoch;
        }
      } else if (dice < 0.65) {
        if (!residents[g].empty()) {
          const auto k = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(residents[g].size()) - 1));
          dev.detach(residents[g][k]);
          residents[g].erase(residents[g].begin() +
                             static_cast<std::ptrdiff_t>(k));
          ++epoch;
        }
      } else if (dice < 0.8) {
        if (dev.parked() || residents[g].empty()) {
          dev.set_parked(!dev.parked());
          ++epoch;
        }
      } else if (dice < 0.85) {
        dev.retire_memory_mb(rng.uniform(0, 512));
        ++epoch;
      }
      // Several mutations may land between queries, and a snapshot may be
      // taken first: callers may mix both reads.
      if (rng.chance(0.4)) continue;
      if (rng.chance(0.3)) (void)agg.snapshot();
      const std::vector<GpuView> got = agg.active_sorted_by_free_memory();
      std::vector<GpuView> want = agg.snapshot();
      std::erase_if(want, [](const GpuView& v) { return v.parked; });
      std::stable_sort(want.begin(), want.end(),
                       [](const GpuView& a, const GpuView& b) {
                         return a.free_mem_mb > b.free_mem_mb;
                       });
      ASSERT_EQ(got, want) << "lanes " << lanes << " op " << op;
    }
  }
}

}  // namespace
}  // namespace knots::telemetry
