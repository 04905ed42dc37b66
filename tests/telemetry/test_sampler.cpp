#include "telemetry/timeseries_db.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace knots::telemetry {
namespace {

/// The heartbeat scrape as it was before reads replayed the noise: all five
/// draws evaluated when the row is written, into a write()-only store. The
/// reference every replayed read must match bit for bit.
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
      Row row;
      row.time = now;
      row.sm = std::clamp(jitter(totals.sm_util, 1.0), 0.0, 1.0);
      row.mem = std::clamp(jitter(totals.memory_used_mb / cap, 1.0), 0.0, 1.0);
      row.power = jitter(dev.power_watts(), 10.0);
      row.tx = jitter(totals.tx_mbps, 100.0);
      row.rx = jitter(totals.rx_mbps, 100.0);
      db_->write(dev.id(), row);
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

  EXPECT_DOUBLE_EQ(db.latest(GpuId{0}, Metric::kSmUtil), 0.6);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{0}, Metric::kMemUtil),
                   4096.0 / spec.gpu.memory_mb);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{0}, Metric::kTxBandwidth), 1000);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{0}, Metric::kRxBandwidth), 250);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{0}, Metric::kPowerWatts),
                   node.gpu(0).power_watts());
  // Idle second GPU sampled too.
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}, Metric::kSmUtil), 0.0);
}

TEST(Sampler, WritesAllFiveMetricsPerGpu) {
  gpu::NodeSpec spec;
  spec.gpus_per_node = 3;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  TimeSeriesDb db(node, Rng(1), 0.0);
  db.sample(0);
  // One row per GPU per heartbeat, carrying all five metrics.
  EXPECT_EQ(db.total_rows(), 3u);
  db.sample(1);
  EXPECT_EQ(db.total_rows(), 6u);
  for (std::int32_t g = 0; g < 3; ++g) {
    EXPECT_EQ(db.latest_time(GpuId{g}), 1);
    for (const Metric m : kAllMetrics) {
      EXPECT_EQ(db.query_all(GpuId{g}, m).size(), 2u);
    }
  }
}

// Each row draws its five noise values in column order — the order the
// per-series layout drew them in, which every committed digest depends on.
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
      const double sm = std::clamp(jitter(totals.sm_util, 1.0), 0.0, 1.0);
      const double mem = std::clamp(
          jitter(totals.memory_used_mb / dev.spec().memory_mb, 1.0), 0.0, 1.0);
      const double power = jitter(dev.power_watts(), 10.0);
      const double tx = jitter(totals.tx_mbps, 100.0);
      const double rx = jitter(totals.rx_mbps, 100.0);
      const auto at = [&](Metric m) {
        return db.query_all(dev.id(), m)[static_cast<std::size_t>(t)].value;
      };
      EXPECT_EQ(at(Metric::kSmUtil), sm);
      EXPECT_EQ(at(Metric::kMemUtil), mem);
      EXPECT_EQ(at(Metric::kPowerWatts), power);
      EXPECT_EQ(at(Metric::kTxBandwidth), tx);
      EXPECT_EQ(at(Metric::kRxBandwidth), rx);
    }
  }
}

TEST(Sampler, NoiseStaysBoundedAndNonNegative) {
  gpu::NodeSpec spec;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  ASSERT_TRUE(node.gpu(0).attach(PodId{1}, 100));
  EXPECT_TRUE(node.gpu(0).set_usage(PodId{1}, {0.5, 8192, 0, 0}));
  TimeSeriesDb db(node, Rng(7), /*noise_sigma=*/0.05);
  for (SimTime t = 0; t < 200; ++t) db.sample(t);
  for (const auto& s : db.query_all(GpuId{0}, Metric::kSmUtil)) {
    EXPECT_GE(s.value, 0.0);
    EXPECT_LE(s.value, 1.0);
    EXPECT_NEAR(s.value, 0.5, 0.4);
  }
}

TEST(Sampler, NoisyMeanTracksTruth) {
  gpu::NodeSpec spec;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  ASSERT_TRUE(node.gpu(0).attach(PodId{1}, 100));
  EXPECT_TRUE(node.gpu(0).set_usage(PodId{1}, {0.4, 1000, 0, 0}));
  TimeSeriesDb db(node, Rng(11), 0.02);
  for (SimTime t = 0; t < 2000; ++t) db.sample(t);
  double sum = 0;
  const auto all = db.query_all(GpuId{0}, Metric::kSmUtil);
  for (const auto& s : all) sum += s.value;
  EXPECT_NEAR(sum / static_cast<double>(all.size()), 0.4, 0.01);
}

// Every read of a noised db against the eager sampler: node widths 1–8, no /
// low / high noise, retentions that keep one row, a few rows, exactly one
// checkpoint interval and several (so rings and the checkpoint ring both
// wrap), muted heartbeats, and usage that moves between samples — SM demand
// past 1 so the clamp bites, idle GPUs so the floor at 0 bites. After every
// step each column of every retained row is read three ways: latest(),
// window_into() from a random start, and query_all().
TEST(SamplerDiff, ReplayedReadsMatchEagerSampler) {
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
      TimeSeriesDb lazy(node, Rng(seed), sigma, retention);
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
          (void)dev.set_usage(pod, {rng.uniform(0.0, 1.3),
                                    rng.uniform(0.0, dev.spec().memory_mb),
                                    rng.uniform(0.0, 900.0),
                                    rng.uniform(0.0, 300.0)});
        }
        now += rng.uniform_int(0, 2);  // equal times allowed
        if (rng.chance(0.8)) {  // a muted heartbeat samples nothing
          lazy.sample(now);
          eager.sample(now);
        }
        ASSERT_EQ(lazy.total_rows(), eager_db.total_rows());
        for (std::size_t i = 0; i < node.gpu_count(); ++i) {
          const GpuId id = node.gpu(i).id();
          ASSERT_EQ(lazy.latest_time(id), eager_db.latest_time(id));
          for (const Metric m : kAllMetrics) {
            SCOPED_TRACE(::testing::Message()
                         << "step " << step << " gpu " << i << " "
                         << metric_name(m));
            ASSERT_EQ(lazy.latest(id, m, -1.0), eager_db.latest(id, m, -1.0));
            const auto all = eager_db.query_all(id, m);
            const auto lazy_all = lazy.query_all(id, m);
            ASSERT_EQ(lazy_all.size(), all.size());
            for (std::size_t r = 0; r < all.size(); ++r) {
              ASSERT_EQ(lazy_all[r].time, all[r].time) << "row " << r;
              ASSERT_EQ(lazy_all[r].value, all[r].value) << "row " << r;
            }
            const SimTime oldest = all.empty() ? 0 : all.front().time;
            const SimTime since = rng.uniform_int(oldest - 1, now + 1);
            lazy.window_into(id, m, since, got);
            eager_db.window_into(id, m, since, want);
            ASSERT_EQ(got, want) << "since " << since;
          }
        }
      }
    }
  }
}

TEST(SamplerDeathTest, NoisedDbTakesRowsFromSampleOnly) {
  gpu::NodeSpec spec;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  TimeSeriesDb db(node, Rng(3), 0.01);
  EXPECT_DEATH(db.write(GpuId{0}, Row{0, 0.5, 0.5, 0.5, 0.5, 0.5}),
               "sample\\(\\) only");
}

}  // namespace
}  // namespace knots::telemetry
