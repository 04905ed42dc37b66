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

TEST(TimeSeriesDb, EmptyQueries) {
  TimeSeriesDb db(GpuId{0}, 1);
  EXPECT_TRUE(db.query_window(GpuId{0}, 0).empty());
  EXPECT_TRUE(db.query_all(GpuId{0}).empty());
  EXPECT_DOUBLE_EQ(db.latest(GpuId{0}, -3.0), -3.0);
  EXPECT_EQ(db.latest_time(GpuId{0}), -1);
  EXPECT_EQ(db.total_rows(), 0u);
}

TEST(TimeSeriesDb, WriteAndLatest) {
  TimeSeriesDb db(GpuId{1}, 1);
  db.write(GpuId{1}, Row{10, 0.25});
  db.write(GpuId{1}, Row{20, 0.75});
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}), 0.75);
  EXPECT_EQ(db.latest_time(GpuId{1}), 20);
  EXPECT_EQ(db.total_rows(), 2u);
}

TEST(TimeSeriesDb, SeriesKeyedByGpu) {
  TimeSeriesDb db(GpuId{1}, 2);
  db.write(GpuId{1}, Row{0, 0.2});
  db.write(GpuId{2}, Row{0, 0.7});
  db.write(GpuId{2}, Row{4, 0.9});
  EXPECT_DOUBLE_EQ(db.latest(GpuId{1}), 0.2);
  EXPECT_DOUBLE_EQ(db.latest(GpuId{2}), 0.9);
  EXPECT_EQ(db.latest_time(GpuId{1}), 0);
  EXPECT_EQ(db.latest_time(GpuId{2}), 4);
  EXPECT_EQ(db.query_window(GpuId{2}, 0), (std::vector<double>{0.7, 0.9}));
}

TEST(TimeSeriesDb, WindowQueryInclusiveOfSince) {
  TimeSeriesDb db(GpuId{0}, 1);
  for (SimTime t = 0; t < 10; ++t) {
    db.write(GpuId{0}, Row{t, static_cast<double>(t)});
  }
  const auto window = db.query_window(GpuId{0}, 6);
  ASSERT_EQ(window.size(), 4u);
  EXPECT_DOUBLE_EQ(window.front(), 6.0);
  EXPECT_DOUBLE_EQ(window.back(), 9.0);
}

TEST(TimeSeriesDb, WindowBeforeAllReturnsEverything) {
  TimeSeriesDb db(GpuId{0}, 1);
  for (SimTime t = 100; t < 105; ++t) db.write(GpuId{0}, Row{t, 1.0});
  EXPECT_EQ(db.query_window(GpuId{0}, 0).size(), 5u);
  EXPECT_TRUE(db.query_window(GpuId{0}, 1000).empty());
}

TEST(TimeSeriesDb, RetentionDropsOldest) {
  TimeSeriesDb db(GpuId{0}, 1, /*retention=*/8);
  for (SimTime t = 0; t < 20; ++t) {
    db.write(GpuId{0}, Row{t, static_cast<double>(t)});
  }
  const auto all = db.query_all(GpuId{0});
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all.front().time, 12);
  EXPECT_EQ(all.back().time, 19);
}

TEST(TimeSeriesDb, WindowIntoMatchesQueryWindow) {
  TimeSeriesDb db(GpuId{3}, 1, /*retention=*/32);  // forces ring wrap
  Rng rng(5);
  std::vector<double> scratch = {42.0};  // must be cleared, not appended to
  for (SimTime t = 0; t < 100; ++t) {
    db.write(GpuId{3}, Row{t, rng.uniform()});
    const SimTime since = t > 10 ? t - 10 : 0;
    const auto vec = db.query_window(GpuId{3}, since);
    db.window_into(GpuId{3}, since, scratch);
    ASSERT_EQ(scratch, vec) << "t=" << t;
    ASSERT_EQ(vec.size(), static_cast<std::size_t>(t - since + 1));
  }
}

TEST(TimeSeriesDb, WindowEmptyCases) {
  TimeSeriesDb db(GpuId{0}, 1);
  EXPECT_TRUE(db.query_window(GpuId{0}, 0).empty());
  db.write(GpuId{0}, Row{5, 1.0});
  EXPECT_TRUE(db.query_window(GpuId{0}, 6).empty());
  EXPECT_EQ(db.query_window(GpuId{0}, 5).size(), 1u);
  // GPUs outside the node read as never written.
  EXPECT_TRUE(db.query_window(GpuId{1}, 0).empty());
  EXPECT_TRUE(db.query_window(GpuId{-1}, 0).empty());
}

TEST(TimeSeriesDb, EqualTimesAreAccepted) {
  TimeSeriesDb db(GpuId{0}, 1);
  db.write(GpuId{0}, Row{5, 1.0});
  db.write(GpuId{0}, Row{5, 2.0});
  EXPECT_EQ(db.query_window(GpuId{0}, 5),
            (std::vector<double>{1.0, 2.0}));
}

TEST(TimeSeriesDbDeathTest, RejectsHeartbeatOlderThanNewestRow) {
  TimeSeriesDb db(GpuId{0}, 2);
  db.write(GpuId{0}, Row{10, 1.0});
  db.write(GpuId{1}, Row{3, 1.0});  // other GPUs keep their own clock
  EXPECT_DEATH(db.write(GpuId{0}, Row{9, 1.0}),
               "older than the GPU's newest row");
}

TEST(TimeSeriesDbDeathTest, RejectsGpuNotOnTheNode) {
  TimeSeriesDb db(GpuId{4}, 2);
  EXPECT_DEATH(db.write(GpuId{6}, Row{0, 1.0}), "not on this node");
  EXPECT_DEATH(db.write(GpuId{3}, Row{0, 1.0}), "not on this node");
}

// The row store against a per-GPU deque of rows capped at retention.
// Random heartbeats to random GPUs (some never written), tiny retentions so
// rings wrap many times, and windows starting before, at, between and after
// the retained rows.
TEST(TimeSeriesDbFuzz, MatchesPerSeriesDequeReference) {
  Rng rng(2024);
  for (int round = 0; round < 40; ++round) {
    const std::int32_t first = static_cast<std::int32_t>(rng.uniform_int(0, 9));
    const std::size_t gpus = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const std::size_t retention =
        static_cast<std::size_t>(rng.uniform_int(1, 17));
    TimeSeriesDb db(GpuId{first}, gpus, retention);
    // ref[g]: the retained rows of one GPU.
    std::vector<std::deque<Row>> ref(gpus);
    std::vector<SimTime> clock(gpus, 0);
    // GPU 0 of every other round never reports.
    const std::size_t silent = round % 2 == 0 ? 0 : gpus;
    std::uint64_t rows = 0;
    for (int op = 0; op < 300; ++op) {
      const auto g = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(gpus) - 1));
      if (g != silent && rng.uniform() < 0.6) {
        clock[g] += rng.uniform_int(0, 3);  // repeats allowed
        const Row row{clock[g], rng.uniform()};
        db.write(GpuId{first + static_cast<std::int32_t>(g)}, row);
        ++rows;
        ref[g].push_back(row);
        if (ref[g].size() > retention) ref[g].pop_front();
        continue;
      }
      const GpuId id{first + static_cast<std::int32_t>(g)};
      const auto& series = ref[g];
      const SimTime oldest = series.empty() ? 0 : series.front().time;
      const std::array<SimTime, 5> starts = {
          oldest - 1, oldest, oldest + 1, clock[g], clock[g] + 1};
      for (const SimTime since : starts) {
        std::vector<double> want;
        for (const Row& r : series) {
          if (r.time >= since) want.push_back(r.mem);
        }
        ASSERT_EQ(db.query_window(id, since), want)
            << "round " << round << " op " << op << " since " << since;
      }
      const auto all = db.query_all(id);
      ASSERT_EQ(all.size(), series.size());
      for (std::size_t i = 0; i < all.size(); ++i) {
        ASSERT_EQ(all[i].time, series[i].time);
        ASSERT_EQ(all[i].mem, series[i].mem);
      }
      ASSERT_EQ(db.latest(id, -1.0), series.empty() ? -1.0 : series.back().mem);
      ASSERT_EQ(db.latest_time(id), series.empty() ? -1 : series.back().time);
    }
    ASSERT_EQ(db.total_rows(), rows);
    // Ids on either side of the node's range hold nothing.
    for (const GpuId outside :
         {GpuId{first - 1}, GpuId{first + static_cast<std::int32_t>(gpus)}}) {
      EXPECT_TRUE(db.query_all(outside).empty());
      EXPECT_EQ(db.latest_time(outside), -1);
      EXPECT_EQ(db.latest(outside, -1.0), -1.0);
    }
  }
}

// G GPUs at retention R cost G·R rows of 16 B in the arena — what
// footprint_bytes() bounds a fleet by — plus at most one chunk of slack (the
// tail of each chunk a ring did not fit into).
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
                     Row{t, 0.5});
      }
    }
  }
  const std::size_t rows_bytes =
      kNodes * kGpusPerNode * kRetention * sizeof(Row);
  EXPECT_EQ(sizeof(Row), 16u);
  EXPECT_EQ(TimeSeriesDb::footprint_bytes(kNodes, kGpusPerNode, kRetention),
            static_cast<double>(rows_bytes));
  EXPECT_GE(arena.bytes_reserved(), rows_bytes);
  EXPECT_LE(arena.bytes_reserved(), rows_bytes + core::PageArena::kHugePage);
}

}  // namespace
}  // namespace knots::telemetry
