#include "workload/load_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "workload/djinn_tonic.hpp"

namespace knots::workload {
namespace {

LoadGenConfig small_config() {
  LoadGenConfig cfg;
  cfg.duration = 120 * kSec;
  return cfg;
}

TEST(LoadGenerator, ArrivalsSortedAndIdsDense) {
  const auto pods = generate_workload(app_mix(1), small_config(), Rng(1));
  ASSERT_FALSE(pods.empty());
  for (std::size_t i = 0; i < pods.size(); ++i) {
    EXPECT_EQ(pods[i].id.value, static_cast<std::int32_t>(i));
    if (i > 0) {
      EXPECT_GE(pods[i].arrival, pods[i - 1].arrival);
    }
    EXPECT_LT(pods[i].arrival, small_config().duration);
  }
}

TEST(LoadGenerator, PodCountEstimateUsesTheGapsTheGeneratorDraws) {
  // A rate scale that leaves the LC stream a 1.9 us mean gap: the generator
  // truncates it to 1 us, and the estimate must count with that gap too,
  // not with 1.9 us, which undercounts the stream almost 2x.
  const AppMix mix = app_mix(1);
  LoadGenConfig cfg;
  cfg.duration = 5 * kMsec;
  cfg.lc_rate_scale = static_cast<double>(lc_interarrival(mix.load)) / 1.9;
  const StreamGaps gaps = mean_interarrivals(mix, cfg);
  EXPECT_EQ(gaps.lc, 1);
  EXPECT_EQ(gaps.batch, batch_interarrival(mix.load));
  const auto window = static_cast<double>(cfg.duration);
  EXPECT_EQ(expected_pod_count(mix, cfg),
            window / static_cast<double>(gaps.batch) + window / 1.0);

  // A scale that leaves under 1 us, or past what a SimTime holds, leaves no
  // gap at all.
  cfg.lc_rate_scale = 1e6;
  EXPECT_EQ(mean_interarrivals(mix, cfg).lc, 0);
  cfg.batch_rate_scale = 1e-300;
  EXPECT_EQ(mean_interarrivals(mix, cfg).batch, 0);
}

// Inputs reject a workload by generated_pod_count before generating it, so
// the count must be exactly the generator's: every mix, windows short
// enough to draw no pod (mix 3 over 2 s at seed 42 does) and long ones,
// and scaled loads.
TEST(LoadGenerator, PodCountMatchesTheGeneratedWorkload) {
  bool saw_empty = false;
  for (const AppMix& mix : all_app_mixes()) {
    for (const SimTime duration : {2 * kSec, 60 * kSec}) {
      for (const double scale : {0.01, 1.0, 3.0}) {
        for (const std::uint64_t seed : {1u, 42u, 7919u}) {
          LoadGenConfig cfg;
          cfg.duration = duration;
          cfg.batch_rate_scale = scale;
          cfg.lc_rate_scale = scale;
          const std::size_t pods =
              generate_workload(mix, cfg, Rng(seed)).size();
          ASSERT_EQ(generated_pod_count(mix, cfg, Rng(seed)), pods)
              << "mix " << mix.id << " duration " << duration << " scale "
              << scale << " seed " << seed;
          saw_empty = saw_empty || pods == 0;
        }
      }
    }
  }
  EXPECT_TRUE(saw_empty);
}

TEST(LoadGenerator, BothClassesPresent) {
  const auto pods = generate_workload(app_mix(1), small_config(), Rng(2));
  int batch = 0, lc = 0;
  for (const auto& p : pods) {
    (p.klass == PodClass::kBatch ? batch : lc)++;
  }
  EXPECT_GT(batch, 0);
  EXPECT_GT(lc, 0);
  EXPECT_GT(lc, batch);  // queries dominate by count (Pareto principle)
}

TEST(LoadGenerator, AppsComeFromTheMix) {
  const auto mix = app_mix(2);
  const auto pods = generate_workload(mix, small_config(), Rng(3));
  for (const auto& p : pods) {
    if (p.klass == PodClass::kBatch) {
      bool found = false;
      for (auto app : mix.batch_apps) {
        if (p.app == rodinia_name(app)) found = true;
      }
      EXPECT_TRUE(found) << p.app;
    } else {
      bool found = false;
      for (auto s : mix.lc_services) {
        if (p.app == service_name(s)) found = true;
      }
      EXPECT_TRUE(found) << p.app;
    }
  }
}

TEST(LoadGenerator, BatchRequestsOverstatePeak) {
  const auto pods = generate_workload(app_mix(1), small_config(), Rng(4));
  for (const auto& p : pods) {
    if (p.klass != PodClass::kBatch) continue;
    EXPECT_GE(p.requested_mb, p.profile.peak_memory_mb());
    EXPECT_FALSE(p.tf_greedy);
    EXPECT_EQ(p.qos_latency, 0);
  }
}

TEST(LoadGenerator, InferencePodsAreTfGreedyWholeDeviceRequests) {
  const auto cfg = small_config();
  const auto pods = generate_workload(app_mix(1), cfg, Rng(5));
  for (const auto& p : pods) {
    if (p.klass != PodClass::kLatencyCritical) continue;
    EXPECT_TRUE(p.tf_greedy);
    EXPECT_NEAR(p.requested_mb, 0.99 * cfg.device_memory_mb, 1.0);
    EXPECT_GE(p.qos_latency, 150 * kMsec);
    // The per-service floor keeps heavy batched queries meetable.
    EXPECT_GE(p.qos_latency,
              3 * p.profile.total_duration() / 2);
    EXPECT_GE(p.batch_size, 1);
    EXPECT_LE(p.batch_size, 128);
  }
}

TEST(LoadGenerator, DeterministicForSameSeed) {
  const auto a = generate_workload(app_mix(3), small_config(), Rng(77));
  const auto b = generate_workload(app_mix(3), small_config(), Rng(77));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_DOUBLE_EQ(a[i].requested_mb, b[i].requested_mb);
  }
}

TEST(LoadGenerator, LoadLevelsOrderArrivalRates) {
  EXPECT_LT(batch_interarrival(LoadLevel::kHigh),
            batch_interarrival(LoadLevel::kMedium));
  EXPECT_LT(batch_interarrival(LoadLevel::kMedium),
            batch_interarrival(LoadLevel::kLow));
  EXPECT_LT(lc_interarrival(LoadLevel::kHigh),
            lc_interarrival(LoadLevel::kMedium));
  EXPECT_LT(arrival_burstiness(CovLevel::kLow),
            arrival_burstiness(CovLevel::kHigh));
}

TEST(LoadGenerator, HighLoadMixProducesMorePods) {
  const auto high = generate_workload(app_mix(1), small_config(), Rng(6));
  const auto low = generate_workload(app_mix(3), small_config(), Rng(6));
  EXPECT_GT(high.size(), 2 * low.size());
}

TEST(AppMix, TableOneDefinitions) {
  const auto m1 = app_mix(1);
  EXPECT_EQ(m1.load, LoadLevel::kHigh);
  EXPECT_EQ(m1.cov, CovLevel::kLow);
  EXPECT_EQ(m1.batch_apps.size(), 4u);
  EXPECT_EQ(m1.lc_services.size(), 2u);
  const auto m2 = app_mix(2);
  EXPECT_EQ(m2.load, LoadLevel::kMedium);
  EXPECT_EQ(m2.lc_services.size(), 3u);
  const auto m3 = app_mix(3);
  EXPECT_EQ(m3.load, LoadLevel::kLow);
  EXPECT_EQ(m3.cov, CovLevel::kHigh);
  EXPECT_EQ(all_app_mixes().size(), 3u);
}

}  // namespace
}  // namespace knots::workload
