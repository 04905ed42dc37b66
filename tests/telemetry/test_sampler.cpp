#include "telemetry/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace knots::telemetry {
namespace {

TEST(Sampler, NoiselessSamplesMatchDeviceState) {
  gpu::NodeSpec spec;
  spec.gpus_per_node = 2;
  gpu::GpuNode node(NodeId{0}, spec, 0);
  ASSERT_TRUE(node.gpu(0).attach(PodId{1}, 1000));
  EXPECT_TRUE(node.gpu(0).set_usage(PodId{1}, {0.6, 4096, 1000, 250}));

  TimeSeriesDb db(GpuId{0}, node.gpu_count());
  HeartbeatSampler sampler(node, db, Rng(1), /*noise_sigma=*/0.0);
  sampler.sample(500);

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
  TimeSeriesDb db(GpuId{0}, node.gpu_count());
  HeartbeatSampler sampler(node, db, Rng(1), 0.0);
  sampler.sample(0);
  // One row per GPU per heartbeat, carrying all five metrics.
  EXPECT_EQ(db.total_rows(), 3u);
  sampler.sample(1);
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
  TimeSeriesDb db(GpuId{0}, node.gpu_count());
  HeartbeatSampler sampler(node, db, Rng(9), kSigma);
  sampler.sample(0);
  sampler.sample(1);

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
  TimeSeriesDb db(GpuId{0}, node.gpu_count());
  HeartbeatSampler sampler(node, db, Rng(7), /*noise_sigma=*/0.05);
  for (SimTime t = 0; t < 200; ++t) sampler.sample(t);
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
  TimeSeriesDb db(GpuId{0}, node.gpu_count());
  HeartbeatSampler sampler(node, db, Rng(11), 0.02);
  for (SimTime t = 0; t < 2000; ++t) sampler.sample(t);
  double sum = 0;
  const auto all = db.query_all(GpuId{0}, Metric::kSmUtil);
  for (const auto& s : all) sum += s.value;
  EXPECT_NEAR(sum / static_cast<double>(all.size()), 0.4, 0.01);
}

}  // namespace
}  // namespace knots::telemetry
