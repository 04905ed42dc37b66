#include "telemetry/timeseries_db.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace knots::telemetry {
namespace {

/// The heartbeat scrape as a five-metric sampler draws it: every §IV-A
/// metric's noise drawn in full, in the order sm, mem, power, tx, rx, and the
/// memory reading written to a write()-only store. The reference every
/// reading of a sampled db must match bit for bit.
class EagerSampler {
 public:
  EagerSampler(const gpu::GpuNode& node, TimeSeriesDb& db, Rng rng,
               double noise_sigma)
      : node_(&node), db_(&db), rng_(rng), noise_sigma_(noise_sigma) {}

  void sample(SimTime now) {
    for (std::size_t i = 0; i < node_->gpu_count(); ++i) {
      const auto& dev = node_->gpu(i);
      const auto totals = dev.totals();
      const double cap = dev.spec().memory_mb;
      // One noise draw per metric, in column order: the draw order is part of
      // every digest.
      (void)jitter(totals.sm_util, 1.0);
      const double mem =
          std::clamp(jitter(totals.memory_used_mb / cap, 1.0), 0.0, 1.0);
      (void)jitter(dev.power_watts(), 10.0);
      (void)jitter(totals.tx_mbps, 100.0);
      (void)jitter(totals.rx_mbps, 100.0);
      db_->write(dev.id(), Row{now, mem});
    }
  }

 private:
  double jitter(double value, double scale) {
    if (noise_sigma_ <= 0.0) return value;
    return std::max(0.0, value + rng_.normal(0.0, noise_sigma_ * scale));
  }

  const gpu::GpuNode* node_;
  TimeSeriesDb* db_;
  Rng rng_;
  double noise_sigma_;
};

TEST(Sampler, NoiselessSamplesMatchDeviceState) {
  gpu::NodeSpec spec;
  spec.gpus_per_node = 2;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  ASSERT_TRUE(node.gpu(0).attach(PodId{1}, 1000));
  EXPECT_TRUE(node.gpu(0).set_usage(PodId{1}, {0.6, 4096, 1000, 250}));

  TimeSeriesDb db(node, Rng(1), /*noise_sigma=*/0.0);
  db.sample(500);

  EXPECT_DOUBLE_EQ(db.latest(GpuId{0}), 4096.0 / spec.gpu.memory_mb);
  EXPECT_EQ(db.latest_time(GpuId{0}), 500);
  // Idle second GPU sampled too.
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}, -1.0), 0.0);
  EXPECT_EQ(db.latest_time(GpuId{1}), 500);
}

TEST(Sampler, WritesOneRowPerGpuPerHeartbeat) {
  gpu::NodeSpec spec;
  spec.gpus_per_node = 3;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  TimeSeriesDb db(node, Rng(1), 0.0);
  db.sample(0);
  EXPECT_EQ(db.total_rows(), 3u);
  db.sample(1);
  EXPECT_EQ(db.total_rows(), 6u);
  for (std::int32_t g = 0; g < 3; ++g) {
    EXPECT_EQ(db.latest_time(GpuId{g}), 1);
    EXPECT_EQ(db.query_all(GpuId{g}).size(), 2u);
  }
}

// Each heartbeat advances the stream by five normals per GPU in column order
// — the order the five-metric rows drew them in, which every committed
// digest depends on — and stores the second, memory's.
TEST(Sampler, RowDrawsNoiseInColumnOrder) {
  gpu::NodeSpec spec;
  spec.gpus_per_node = 2;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  ASSERT_TRUE(node.gpu(1).attach(PodId{1}, 100));
  EXPECT_TRUE(node.gpu(1).set_usage(PodId{1}, {0.5, 8192, 300, 200}));
  constexpr double kSigma = 0.05;
  TimeSeriesDb db(node, Rng(9), kSigma);
  db.sample(0);
  db.sample(1);

  Rng ref(9);
  const auto jitter = [&](double value, double scale) {
    return std::max(0.0, value + ref.normal(0.0, kSigma * scale));
  };
  for (SimTime t = 0; t < 2; ++t) {
    for (std::size_t i = 0; i < node.gpu_count(); ++i) {
      const auto& dev = node.gpu(i);
      const auto totals = dev.totals();
      (void)jitter(totals.sm_util, 1.0);
      const double mem = std::clamp(
          jitter(totals.memory_used_mb / dev.spec().memory_mb, 1.0), 0.0, 1.0);
      (void)jitter(dev.power_watts(), 10.0);
      (void)jitter(totals.tx_mbps, 100.0);
      (void)jitter(totals.rx_mbps, 100.0);
      const Row row = db.query_all(dev.id())[static_cast<std::size_t>(t)];
      EXPECT_EQ(row.time, t);
      EXPECT_EQ(row.mem, mem);
    }
  }
}

TEST(Sampler, NoiseStaysBoundedAndNonNegative) {
  gpu::NodeSpec spec;
  spec.gpus_per_node = 2;  // the second GPU idles, so the floor at 0 bites
  gpu::GpuNode node(NodeId{0}, spec, 0);
  ASSERT_TRUE(node.gpu(0).attach(PodId{1}, 100));
  EXPECT_TRUE(node.gpu(0).set_usage(
      PodId{1}, {0.5, 0.5 * spec.gpu.memory_mb, 0, 0}));
  TimeSeriesDb db(node, Rng(7), /*noise_sigma=*/0.05);
  for (SimTime t = 0; t < 200; ++t) db.sample(t);
  for (const Row& r : db.query_all(GpuId{0})) {
    EXPECT_GE(r.mem, 0.0);
    EXPECT_LE(r.mem, 1.0);
    EXPECT_NEAR(r.mem, 0.5, 0.4);
  }
  for (const Row& r : db.query_all(GpuId{1})) {
    EXPECT_GE(r.mem, 0.0);
    EXPECT_LE(r.mem, 0.4);
  }
}

TEST(Sampler, NoisyMeanTracksTruth) {
  gpu::NodeSpec spec;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  ASSERT_TRUE(node.gpu(0).attach(PodId{1}, 100));
  EXPECT_TRUE(node.gpu(0).set_usage(
      PodId{1}, {0.4, 0.4 * spec.gpu.memory_mb, 0, 0}));
  TimeSeriesDb db(node, Rng(11), 0.02);
  for (SimTime t = 0; t < 2000; ++t) db.sample(t);
  double sum = 0;
  const auto all = db.query_all(GpuId{0});
  for (const Row& r : all) sum += r.mem;
  EXPECT_NEAR(sum / static_cast<double>(all.size()), 0.4, 0.01);
}

// Every read of a sampled db against the eager five-draw sampler: node
// widths 1–8, no / low / high noise, retentions that keep one row, a few
// rows, and more (so rings wrap), muted heartbeats, and usage that moves
// between samples — idle GPUs so the floor at 0 bites, and usage past the
// capacity so the clamp at 1 does. After every step the memory readings of
// every retained row are read three ways: latest(), window_into() from a
// random start, and query_all().
TEST(SamplerDiff, MemoryReadsMatchEagerSampler) {
  constexpr std::array<double, 3> kSigmas = {0.0, 0.005, 0.05};
  constexpr std::array<std::size_t, 4> kRetentions = {1, 7, 64, 200};
  Rng rng(2026);
  int round = 0;
  for (const double sigma : kSigmas) {
    for (const std::size_t retention : kRetentions) {
      SCOPED_TRACE(::testing::Message() << "sigma " << sigma << " retention "
                                        << retention << " round " << round);
      gpu::NodeSpec spec;
      spec.gpus_per_node = 1 + round % 8;
      ++round;
      const auto first = static_cast<std::int32_t>(rng.uniform_int(0, 20));
      gpu::GpuNode node(NodeId{0}, spec, first);
      const std::uint64_t seed = rng.uniform_int(1, 1 << 30);
      TimeSeriesDb sampled(node, Rng(seed), sigma, retention);
      TimeSeriesDb eager_db(GpuId{first}, node.gpu_count(), retention);
      EagerSampler eager(node, eager_db, Rng(seed), sigma);

      std::vector<double> got;
      std::vector<double> want;
      SimTime now = 0;
      const auto steps = static_cast<int>(retention) + 160;
      for (int step = 0; step < steps; ++step) {
        // Usage moves on a random GPU: a new pod, new usage, or a detach.
        const auto g = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(node.gpu_count()) - 1));
        gpu::GpuDevice& dev = node.gpu(g);
        const PodId pod{static_cast<std::int32_t>(g) + 1};
        const double dice = rng.uniform();
        if (dice < 0.15) {
          dev.detach(pod);
        } else if (dice < 0.5) {
          if (!dev.resident(pod)) (void)dev.attach(pod, 1000.0);
          const double cap = dev.spec().memory_mb;
          (void)dev.set_usage(pod, {rng.uniform(0.0, 1.3),
                                    rng.uniform(0.0, 1.2 * cap),
                                    rng.uniform(0.0, 900.0),
                                    rng.uniform(0.0, 300.0)});
        }
        now += rng.uniform_int(0, 2);  // equal times allowed
        if (rng.chance(0.8)) {  // a muted heartbeat samples nothing
          sampled.sample(now);
          eager.sample(now);
        }
        ASSERT_EQ(sampled.total_rows(), eager_db.total_rows());
        for (std::size_t i = 0; i < node.gpu_count(); ++i) {
          SCOPED_TRACE(::testing::Message() << "step " << step << " gpu " << i);
          const GpuId id = node.gpu(i).id();
          ASSERT_EQ(sampled.latest_time(id), eager_db.latest_time(id));
          ASSERT_EQ(sampled.latest(id, -1.0), eager_db.latest(id, -1.0));
          const auto all = eager_db.query_all(id);
          const auto sampled_all = sampled.query_all(id);
          ASSERT_EQ(sampled_all.size(), all.size());
          for (std::size_t r = 0; r < all.size(); ++r) {
            ASSERT_EQ(sampled_all[r].time, all[r].time) << "row " << r;
            ASSERT_EQ(sampled_all[r].mem, all[r].mem) << "row " << r;
          }
          const SimTime oldest = all.empty() ? 0 : all.front().time;
          const SimTime since = rng.uniform_int(oldest - 1, now + 1);
          sampled.window_into(id, since, got);
          eager_db.window_into(id, since, want);
          ASSERT_EQ(got, want) << "since " << since;
        }
      }
    }
  }
}

}  // namespace
}  // namespace knots::telemetry
