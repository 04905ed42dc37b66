#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace knots::sim {
namespace {

TEST(Simulation, StartsAtZeroAndEmpty) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulation, SameTimestampIsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, HandlerMaySchedule) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.schedule_after(4, [&] { ++fired; });
  });
  sim.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 5);
}

TEST(Simulation, RunUntilStopsAtBoundAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(200);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RequestStopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.request_stop();
  });
  sim.schedule_at(2, [&] { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, ZeroDelayScheduleAfterFiresAtCurrentTime) {
  Simulation sim;
  SimTime seen = -1;
  sim.schedule_at(7, [&] {
    sim.schedule_after(0, [&] { seen = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(seen, 7);
}

TEST(Periodic, FiresAtFixedCadenceUntilFalse) {
  Simulation sim;
  std::vector<SimTime> fires;
  schedule_periodic(sim, 10, 10, [&](SimTime now) {
    fires.push_back(now);
    return fires.size() < 5;
  });
  sim.run_all();
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 20, 30, 40, 50}));
}

TEST(Periodic, CoexistsWithOtherEvents) {
  Simulation sim;
  int ticks = 0, others = 0;
  schedule_periodic(sim, 5, 5, [&](SimTime) { return ++ticks < 4; });
  sim.schedule_at(7, [&] { ++others; });
  sim.schedule_at(12, [&] { ++others; });
  sim.run_all();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(others, 2);
}

TEST(Simulation, ScheduleBehindAPeekedFarEventKeepsOrder) {
  // run_until peeks the next event, which moves the queue's cursor across
  // the empty buckets up to it, then stops at its bound. Events the caller
  // schedules between the bound and that far event land behind the cursor
  // and must still fire in (time, insertion) order — the order the
  // std::priority_queue reference gives.
  constexpr SimTime kBucketWidth = SimTime{1}
                                   << EventQueue::kBucketWidthLog2;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Simulation sim;
    struct Ref {
      SimTime time;
      int id;
    };
    const auto later = [](const Ref& a, const Ref& b) {
      return a.time != b.time ? a.time > b.time : a.id > b.id;
    };
    std::priority_queue<Ref, std::vector<Ref>, decltype(later)> ref(later);
    std::vector<Ref> fired;
    int next_id = 0;
    const auto add = [&](SimTime t) {
      const int id = next_id++;
      sim.schedule_at(t, [&fired, &sim, id] {
        fired.push_back(Ref{sim.now(), id});
      });
      ref.push(Ref{t, id});
    };
    for (int round = 0; round < 200; ++round) {
      const SimTime far = sim.now() +
                          rng.uniform_int(100, 1100) * kBucketWidth +
                          rng.uniform_int(0, kBucketWidth - 1);
      add(far);
      const SimTime bound = rng.uniform_int(sim.now(), far - 1);
      sim.run_until(bound);
      ASSERT_EQ(sim.now(), bound);
      const auto extra = rng.uniform_int(1, 4);
      for (std::int64_t i = 0; i < extra; ++i) {
        add(rng.uniform_int(bound, far));
      }
    }
    sim.run_all();
    ASSERT_EQ(fired.size(), ref.size()) << "seed " << seed;
    for (const Ref& got : fired) {
      ASSERT_EQ(got.time, ref.top().time) << "seed " << seed;
      ASSERT_EQ(got.id, ref.top().id) << "seed " << seed;
      ref.pop();
    }
  }
}

TEST(Simulation, ReplayKeepsOneEntryQueued) {
  // A replayed table occupies one queue slot however long it is, fires
  // every entry at its time in table order, and interleaves with ordinary
  // events by (time, insertion) as if its entries had been scheduled where
  // replay_sorted was called: before the event at 20 scheduled after it,
  // after the one at 10 scheduled before it.
  Simulation sim;
  std::vector<std::pair<SimTime, int>> fired;
  const auto log = [&](int label) { fired.emplace_back(sim.now(), label); };
  sim.schedule_at(10, [&] { log(-1); });
  const std::vector<SimTime> times{0, 10, 10, 20, 9'000'000};
  sim.replay_sorted(
      times.size(), [&](std::size_t k) { return times[k]; },
      [&](std::size_t k) { log(static_cast<int>(k)); });
  sim.schedule_at(20, [&] { log(-2); });
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<std::pair<SimTime, int>>{{0, 0},
                                                          {10, -1},
                                                          {10, 1},
                                                          {10, 2},
                                                          {20, 3},
                                                          {20, -2},
                                                          {9'000'000, 4}}));
  EXPECT_EQ(sim.events_processed(), 7u);
  EXPECT_TRUE(sim.empty());
}

void replay_unsorted_table() {
  Simulation sim;
  const std::vector<SimTime> times{5, 9, 7};
  sim.replay_sorted(
      times.size(), [&](std::size_t k) { return times[k]; },
      [](std::size_t) {});
  sim.run_all();
}

TEST(SimulationDeathTest, ReplayedEntryEarlierThanItsPredecessorAborts) {
  EXPECT_DEATH(replay_unsorted_table(), "replayed table is not sorted");
}

TEST(Simulation, ManyEventsStressOrdering) {
  Simulation sim;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 5000; ++i) {
    // Insert in a scrambled but deterministic order.
    const SimTime t = (i * 7919) % 10007;
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run_all();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.events_processed(), 5000u);
}

}  // namespace
}  // namespace knots::sim
