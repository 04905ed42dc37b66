#include "telemetry/timeseries_db.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/page_arena.hpp"
#include "core/rng.hpp"

namespace knots::telemetry {
namespace {

/// A heartbeat whose every column is `v` (tests that read one metric).
Row row_of(SimTime t, double v) { return Row{t, v, v, v, v, v}; }

TEST(TimeSeriesDb, EmptyQueries) {
  TimeSeriesDb db(GpuId{0}, 1);
  EXPECT_TRUE(db.query_window(GpuId{0}, Metric::kSmUtil, 0).empty());
  EXPECT_TRUE(db.query_all(GpuId{0}, Metric::kSmUtil).empty());
  EXPECT_DOUBLE_EQ(db.latest(GpuId{0}, Metric::kSmUtil, -3.0), -3.0);
  EXPECT_EQ(db.latest_time(GpuId{0}), -1);
  EXPECT_EQ(db.latest_row(GpuId{0}), nullptr);
  EXPECT_EQ(db.total_rows(), 0u);
}

TEST(TimeSeriesDb, WriteAndLatest) {
  TimeSeriesDb db(GpuId{1}, 1);
  db.write(GpuId{1}, row_of(10, 100.0));
  db.write(GpuId{1}, row_of(20, 150.0));
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}, Metric::kPowerWatts), 150.0);
  EXPECT_EQ(db.latest_time(GpuId{1}), 20);
  EXPECT_EQ(db.total_rows(), 2u);
}

TEST(TimeSeriesDb, SeriesKeyedByGpuAndMetric) {
  TimeSeriesDb db(GpuId{1}, 2);
  db.write(GpuId{1}, Row{0, 0.5, 0.2, 100.0, 10.0, 20.0});
  db.write(GpuId{2}, Row{0, 0.9, 0.7, 200.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}, Metric::kSmUtil), 0.5);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{2}, Metric::kSmUtil), 0.9);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}, Metric::kMemUtil), 0.2);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{2}, Metric::kPowerWatts), 200.0);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}, Metric::kTxBandwidth), 10.0);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{2}, Metric::kRxBandwidth), 40.0);
}

TEST(TimeSeriesDb, RowColumnsMatchMetrics) {
  const Row r{7, 1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(r.value(Metric::kSmUtil), 1.0);
  EXPECT_EQ(r.value(Metric::kMemUtil), 2.0);
  EXPECT_EQ(r.value(Metric::kPowerWatts), 3.0);
  EXPECT_EQ(r.value(Metric::kTxBandwidth), 4.0);
  EXPECT_EQ(r.value(Metric::kRxBandwidth), 5.0);
}

TEST(TimeSeriesDb, WindowQueryInclusiveOfSince) {
  TimeSeriesDb db(GpuId{0}, 1);
  for (SimTime t = 0; t < 10; ++t) {
    db.write(GpuId{0}, row_of(t, static_cast<double>(t)));
  }
  const auto window = db.query_window(GpuId{0}, Metric::kSmUtil, 6);
  ASSERT_EQ(window.size(), 4u);
  EXPECT_DOUBLE_EQ(window.front(), 6.0);
  EXPECT_DOUBLE_EQ(window.back(), 9.0);
}

TEST(TimeSeriesDb, WindowBeforeAllReturnsEverything) {
  TimeSeriesDb db(GpuId{0}, 1);
  for (SimTime t = 100; t < 105; ++t) db.write(GpuId{0}, row_of(t, 1.0));
  EXPECT_EQ(db.query_window(GpuId{0}, Metric::kRxBandwidth, 0).size(), 5u);
  EXPECT_TRUE(db.query_window(GpuId{0}, Metric::kRxBandwidth, 1000).empty());
}

TEST(TimeSeriesDb, RetentionDropsOldest) {
  TimeSeriesDb db(GpuId{0}, 1, /*retention=*/8);
  for (SimTime t = 0; t < 20; ++t) {
    db.write(GpuId{0}, row_of(t, static_cast<double>(t)));
  }
  const auto all = db.query_all(GpuId{0}, Metric::kSmUtil);
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all.front().time, 12);
  EXPECT_EQ(all.back().time, 19);
}

TEST(TimeSeriesDb, WindowIntoMatchesQueryWindow) {
  TimeSeriesDb db(GpuId{3}, 1, /*retention=*/32);  // forces ring wrap
  Rng rng(5);
  std::vector<double> scratch = {42.0};  // must be cleared, not appended to
  for (SimTime t = 0; t < 100; ++t) {
    db.write(GpuId{3}, row_of(t, rng.uniform()));
    const SimTime since = t > 10 ? t - 10 : 0;
    const auto vec = db.query_window(GpuId{3}, Metric::kMemUtil, since);
    db.window_into(GpuId{3}, Metric::kMemUtil, since, scratch);
    ASSERT_EQ(scratch, vec) << "t=" << t;
    ASSERT_EQ(vec.size(), static_cast<std::size_t>(t - since + 1));
  }
}

TEST(TimeSeriesDb, WindowEmptyCases) {
  TimeSeriesDb db(GpuId{0}, 1);
  EXPECT_TRUE(db.query_window(GpuId{0}, Metric::kSmUtil, 0).empty());
  db.write(GpuId{0}, row_of(5, 1.0));
  EXPECT_TRUE(db.query_window(GpuId{0}, Metric::kSmUtil, 6).empty());
  EXPECT_EQ(db.query_window(GpuId{0}, Metric::kSmUtil, 5).size(), 1u);
  // GPUs outside the node read as never written.
  EXPECT_TRUE(db.query_window(GpuId{1}, Metric::kSmUtil, 0).empty());
  EXPECT_TRUE(db.query_window(GpuId{-1}, Metric::kSmUtil, 0).empty());
}

TEST(TimeSeriesDb, EqualTimesAreAccepted) {
  TimeSeriesDb db(GpuId{0}, 1);
  db.write(GpuId{0}, row_of(5, 1.0));
  db.write(GpuId{0}, row_of(5, 2.0));
  EXPECT_EQ(db.query_window(GpuId{0}, Metric::kSmUtil, 5),
            (std::vector<double>{1.0, 2.0}));
}

TEST(TimeSeriesDbDeathTest, RejectsHeartbeatOlderThanNewestRow) {
  TimeSeriesDb db(GpuId{0}, 2);
  db.write(GpuId{0}, row_of(10, 1.0));
  db.write(GpuId{1}, row_of(3, 1.0));  // other GPUs keep their own clock
  EXPECT_DEATH(db.write(GpuId{0}, row_of(9, 1.0)),
               "older than the GPU's newest row");
}

TEST(TimeSeriesDbDeathTest, RejectsGpuNotOnTheNode) {
  TimeSeriesDb db(GpuId{4}, 2);
  EXPECT_DEATH(db.write(GpuId{6}, row_of(0, 1.0)), "not on this node");
  EXPECT_DEATH(db.write(GpuId{3}, row_of(0, 1.0)), "not on this node");
}

// The row store against the per-(GPU, metric) layout it replaced: one deque
// per series, capped at retention. Random heartbeats to random GPUs (some
// never written), tiny retentions so rings wrap many times, and windows
// starting before, at, between and after the retained rows.
TEST(TimeSeriesDbFuzz, MatchesPerSeriesDequeReference) {
  Rng rng(2024);
  for (int round = 0; round < 40; ++round) {
    const std::int32_t first = static_cast<std::int32_t>(rng.uniform_int(0, 9));
    const std::size_t gpus = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const std::size_t retention =
        static_cast<std::size_t>(rng.uniform_int(1, 17));
    TimeSeriesDb db(GpuId{first}, gpus, retention);
    // ref[g][m]: the retained (time, value) samples of one series.
    std::vector<std::array<std::deque<Sample>, 5>> ref(gpus);
    std::vector<SimTime> clock(gpus, 0);
    // GPU 0 of every other round never reports.
    const std::size_t silent = round % 2 == 0 ? 0 : gpus;
    std::uint64_t rows = 0;
    for (int op = 0; op < 300; ++op) {
      const auto g = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(gpus) - 1));
      if (g != silent && rng.uniform() < 0.6) {
        clock[g] += rng.uniform_int(0, 3);  // repeats allowed
        const Row row{clock[g], rng.uniform(), rng.uniform(), rng.uniform(),
                      rng.uniform(), rng.uniform()};
        db.write(GpuId{first + static_cast<std::int32_t>(g)}, row);
        ++rows;
        for (const Metric m : kAllMetrics) {
          auto& series = ref[g][static_cast<std::size_t>(m)];
          series.push_back({row.time, row.value(m)});
          if (series.size() > retention) series.pop_front();
        }
        continue;
      }
      const GpuId id{first + static_cast<std::int32_t>(g)};
      const Metric m = kAllMetrics[static_cast<std::size_t>(
          rng.uniform_int(0, 4))];
      const auto& series = ref[g][static_cast<std::size_t>(m)];
      const SimTime oldest = series.empty() ? 0 : series.front().time;
      const std::array<SimTime, 5> starts = {
          oldest - 1, oldest, oldest + 1, clock[g], clock[g] + 1};
      for (const SimTime since : starts) {
        std::vector<double> want;
        for (const Sample& s : series) {
          if (s.time >= since) want.push_back(s.value);
        }
        ASSERT_EQ(db.query_window(id, m, since), want)
            << "round " << round << " op " << op << " since " << since;
      }
      const auto all = db.query_all(id, m);
      ASSERT_EQ(all.size(), series.size());
      for (std::size_t i = 0; i < all.size(); ++i) {
        ASSERT_EQ(all[i].time, series[i].time);
        ASSERT_EQ(all[i].value, series[i].value);
      }
      ASSERT_EQ(db.latest(id, m, -1.0),
                series.empty() ? -1.0 : series.back().value);
      ASSERT_EQ(db.latest_time(id), series.empty() ? -1 : series.back().time);
    }
    ASSERT_EQ(db.total_rows(), rows);
    // Ids on either side of the node's range hold nothing.
    for (const GpuId outside :
         {GpuId{first - 1}, GpuId{first + static_cast<std::int32_t>(gpus)}}) {
      EXPECT_TRUE(db.query_all(outside, Metric::kSmUtil).empty());
      EXPECT_EQ(db.latest_time(outside), -1);
      EXPECT_EQ(db.latest_row(outside), nullptr);
    }
  }
}

// G GPUs at retention R cost G·R rows of 48 B in the arena, plus at most one
// chunk of slack (the tail of each chunk a ring did not fit into).
TEST(TimeSeriesDb, MemoryBoundIsOneRowPerHeartbeat) {
  constexpr std::size_t kNodes = 128;
  constexpr std::size_t kGpusPerNode = 4;
  constexpr std::size_t kRetention = 300;
  core::PageArena arena(core::PageArena::kHugePage);
  std::vector<TimeSeriesDb> dbs;
  dbs.reserve(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    dbs.emplace_back(GpuId{static_cast<std::int32_t>(n * kGpusPerNode)},
                     kGpusPerNode, kRetention, &arena);
  }
  for (SimTime t = 0; t < static_cast<SimTime>(2 * kRetention); ++t) {
    for (std::size_t n = 0; n < kNodes; ++n) {
      for (std::size_t g = 0; g < kGpusPerNode; ++g) {
        dbs[n].write(GpuId{static_cast<std::int32_t>(n * kGpusPerNode + g)},
                     row_of(t, 0.5));
      }
    }
  }
  const std::size_t rows_bytes =
      kNodes * kGpusPerNode * kRetention * sizeof(Row);
  EXPECT_EQ(sizeof(Row), 48u);
  EXPECT_GE(arena.bytes_reserved(), rows_bytes);
  EXPECT_LE(arena.bytes_reserved(), rows_bytes + core::PageArena::kHugePage);
}

TEST(MetricNames, AllDistinct) {
  for (auto a : kAllMetrics) {
    for (auto b : kAllMetrics) {
      if (a != b) {
        EXPECT_NE(metric_name(a), metric_name(b));
      }
    }
  }
  EXPECT_EQ(metric_name(Metric::kSmUtil), "sm_util");
  EXPECT_EQ(kAllMetrics.size(), 5u);  // the five §IV-A metrics
}

}  // namespace
}  // namespace knots::telemetry
