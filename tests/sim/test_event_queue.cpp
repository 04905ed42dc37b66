// Property and differential-fuzz suite for the bucketed calendar queue.
//
// The queue replaced a std::priority_queue; its one contract is *identical
// observable order*: events pop in ascending (time, insertion-sequence)
// order under any interleaving of schedule / cancel / pop, including times
// that straddle bucket boundaries, the wheel horizon, and the far blocks
// past it. The fuzz drives both implementations with the same operation
// stream and demands identical pop sequences.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "core/rng.hpp"

namespace knots::sim {
namespace {

constexpr SimTime kBucketWidth = SimTime{1} << EventQueue::kBucketWidthLog2;
constexpr SimTime kHorizon =
    kBucketWidth * static_cast<SimTime>(EventQueue::kBuckets);

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  SimTime t = -1;
  EXPECT_FALSE(q.peek_time(t));
  EventQueue::Handler fn;
  EXPECT_FALSE(q.pop(t, fn));
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  SimTime t;
  EventQueue::Handler fn;
  while (q.pop(t, fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimestampIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  SimTime t;
  EventQueue::Handler fn;
  while (q.pop(t, fn)) {
    EXPECT_EQ(t, 5);
    fn();
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, PeekMatchesPopAndDoesNotExtract) {
  EventQueue q;
  q.schedule(42, [] {});
  SimTime t = -1;
  ASSERT_TRUE(q.peek_time(t));
  EXPECT_EQ(t, 42);
  EXPECT_EQ(q.size(), 1u);
  EventQueue::Handler fn;
  ASSERT_TRUE(q.pop(t, fn));
  EXPECT_EQ(t, 42);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, BucketBoundaryTimesStayOrdered) {
  // Events sitting exactly on, just before, and just after bucket edges.
  EventQueue q;
  std::vector<SimTime> times;
  for (SimTime b = 0; b < 5; ++b) {
    const SimTime edge = b * kBucketWidth;
    for (const SimTime t : {edge, edge + 1, edge + kBucketWidth - 1}) {
      times.push_back(t);
    }
  }
  // Insert in a scrambled order.
  std::vector<SimTime> scrambled = times;
  std::reverse(scrambled.begin(), scrambled.end());
  for (const SimTime t : scrambled) q.schedule(t, [] {});
  std::sort(times.begin(), times.end());
  SimTime t;
  EventQueue::Handler fn;
  for (const SimTime expect : times) {
    ASSERT_TRUE(q.pop(t, fn));
    EXPECT_EQ(t, expect);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FarFutureEventsCrossTheHorizon) {
  // An event far past the wheel horizon must cascade in and pop in order,
  // even when the wheel in between is completely empty (cursor jump).
  EventQueue q;
  std::vector<int> order;
  q.schedule(3 * kHorizon, [&] { order.push_back(2); });
  q.schedule(7, [&] { order.push_back(1); });
  q.schedule(9 * kHorizon, [&] { order.push_back(3); });
  SimTime t;
  EventQueue::Handler fn;
  std::vector<SimTime> pop_times;
  while (q.pop(t, fn)) {
    pop_times.push_back(t);
    fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(pop_times, (std::vector<SimTime>{7, 3 * kHorizon, 9 * kHorizon}));
}

TEST(EventQueue, ScheduleBetweenPopsLandsInOrder) {
  // After draining past empty buckets, a new near-term event (>= the last
  // popped time, the engine's contract) must still pop before later ones.
  EventQueue q;
  q.schedule(2 * kHorizon, [] {});
  SimTime t;
  ASSERT_TRUE(q.peek_time(t));  // advances the cursor across the gap
  EXPECT_EQ(t, 2 * kHorizon);
  q.schedule(kHorizon / 2, [] {});  // behind the (jumped) cursor
  ASSERT_TRUE(q.peek_time(t));
  EXPECT_EQ(t, kHorizon / 2);
  EventQueue::Handler fn;
  ASSERT_TRUE(q.pop(t, fn));
  EXPECT_EQ(t, kHorizon / 2);
  ASSERT_TRUE(q.pop(t, fn));
  EXPECT_EQ(t, 2 * kHorizon);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelSuppressesPendingEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&] { fired += 1; });
  const std::uint64_t doomed = q.schedule(20, [&] { fired += 100; });
  q.schedule(30, [&] { fired += 10; });
  q.cancel(doomed);
  EXPECT_EQ(q.size(), 2u);
  SimTime t;
  EventQueue::Handler fn;
  while (q.pop(t, fn)) fn();
  EXPECT_EQ(fired, 11);
}

TEST(EventQueue, CancelOverflowEvent) {
  EventQueue q;
  int fired = 0;
  const std::uint64_t doomed =
      q.schedule(5 * kHorizon, [&] { fired += 100; });
  q.schedule(6 * kHorizon, [&] { fired += 1; });
  q.cancel(doomed);
  EXPECT_EQ(q.size(), 1u);
  SimTime t;
  EventQueue::Handler fn;
  while (q.pop(t, fn)) fn();
  EXPECT_EQ(fired, 1);
}

// Reference model: the exact (time, seq) heap the engine used before.
struct RefEvent {
  SimTime time;
  std::uint64_t seq;
};
struct RefLater {
  bool operator()(const RefEvent& a, const RefEvent& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Drives an EventQueue and the reference heap with one operation stream.
/// Each event's handler records its id, so a pop checks both the time and
/// the identity of what fired.
class Differential {
 public:
  std::uint64_t schedule(SimTime t) {
    const std::uint64_t id = q_.schedule(t, [this, n = times_.size()] {
      fired_.push_back(n);
    });
    EXPECT_EQ(id, times_.size());  // ids are insertion sequence numbers
    times_.push_back(t);
    canceled_.push_back(false);
    ref_.push(RefEvent{t, id});
    live_.push_back(id);
    return id;
  }

  /// Cancels the pending event live()[pick] in both models.
  void cancel(std::size_t pick) {
    const std::uint64_t id = live_[pick];
    q_.cancel(id);
    canceled_[id] = true;
    live_[pick] = live_.back();
    live_.pop_back();
  }

  /// Peeks both models and fails the test unless they agree. Returns the
  /// earliest pending time, or nullopt when both are empty.
  std::optional<SimTime> peek() {
    SimTime t = 0;
    const bool have = q_.peek_time(t);
    while (!ref_.empty() && canceled_[ref_.top().seq]) ref_.pop();
    EXPECT_EQ(have, !ref_.empty());
    if (!have || ref_.empty()) return std::nullopt;
    EXPECT_EQ(t, ref_.top().time);
    return t;
  }

  /// Pops once from both models and fails the test unless they agree.
  /// Returns the popped id, or nullopt when both are empty.
  std::optional<std::uint64_t> pop() {
    SimTime t = 0;
    EventQueue::Handler fn;
    const bool have = q_.pop(t, fn);
    while (!ref_.empty() && canceled_[ref_.top().seq]) ref_.pop();
    EXPECT_EQ(have, !ref_.empty());
    if (!have || ref_.empty()) return std::nullopt;
    const RefEvent want = ref_.top();
    ref_.pop();
    EXPECT_EQ(t, want.time);
    EXPECT_GE(t, last_pop_);
    fn();
    EXPECT_EQ(fired_.back(), want.seq);
    // The fired event is no longer cancelable (pending-only contract).
    const auto it = std::find(live_.begin(), live_.end(), want.seq);
    EXPECT_NE(it, live_.end());
    if (it != live_.end()) {
      *it = live_.back();
      live_.pop_back();
    }
    last_pop_ = t;
    return want.seq;
  }

  /// Index into live() of an event no other live event shares a bucket
  /// with, or nullopt.
  [[nodiscard]] std::optional<std::size_t> lone_event() const {
    for (std::size_t i = 0; i < live_.size(); ++i) {
      const SimTime bucket = times_[live_[i]] / kBucketWidth;
      const auto same = std::count_if(
          live_.begin(), live_.end(), [&](std::uint64_t id) {
            return times_[id] / kBucketWidth == bucket;
          });
      if (same == 1) return i;
    }
    return std::nullopt;
  }

  [[nodiscard]] const std::vector<std::uint64_t>& live() const noexcept {
    return live_;
  }
  [[nodiscard]] SimTime time_of(std::uint64_t id) const { return times_[id]; }
  [[nodiscard]] SimTime last_pop() const noexcept { return last_pop_; }

 private:
  EventQueue q_;
  std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater> ref_;
  std::vector<SimTime> times_;    ///< By id.
  std::vector<bool> canceled_;    ///< By id.
  std::vector<std::uint64_t> live_;
  std::vector<std::uint64_t> fired_;
  SimTime last_pop_ = 0;
};

/// Differential fuzz: random schedule/pop/cancel interleavings, with times
/// drawn to stress bucket edges, the horizon boundary, and far overflow.
TEST(EventQueueFuzz, MatchesPriorityQueueReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Differential d;
    for (int step = 0; step < 4000; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.55) {
        // Schedule at a time >= the last pop (the engine's contract). Mix
        // near-term, bucket-edge, horizon-edge, and far-future times.
        const SimTime last_pop = d.last_pop();
        SimTime t = last_pop;
        const double kind = rng.uniform();
        if (kind < 0.4) {
          t += rng.uniform_int(0, 3 * kBucketWidth);
        } else if (kind < 0.6) {
          const SimTime edge =
              (last_pop / kBucketWidth + rng.uniform_int(0, 4)) * kBucketWidth;
          t = edge + rng.uniform_int(-1, 1);
          if (t < last_pop) t = last_pop;
        } else if (kind < 0.8) {
          t += kHorizon + rng.uniform_int(-2 * kBucketWidth, 2 * kBucketWidth);
        } else {
          t += rng.uniform_int(0, 5 * kHorizon);
        }
        d.schedule(t);
      } else if (roll < 0.65 && !d.live().empty()) {
        // Cancel a random pending event in both models.
        d.cancel(static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(d.live().size()) - 1)));
      } else {
        d.pop();
      }
      ASSERT_FALSE(HasFailure()) << "seed " << seed << " step " << step;
    }
    // Full drain: remaining events must replay the reference exactly.
    while (d.pop()) {
    }
    ASSERT_FALSE(HasFailure()) << "seed " << seed << " drain";
  }
}

/// The sparse arm: a 1 s tick leaves about 122 empty buckets between two
/// pops, so the cursor crosses long empty runs and wraps from slot 1023 to
/// 0. Gaps of 100-1,100 buckets (some past the horizon), 1 s periodic
/// chains that start and stop, and cancels that leave a bucket holding
/// nothing but a tombstone.
TEST(EventQueueFuzz, SparseWheelMatchesPriorityQueueReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Differential d;
    std::vector<bool> chained;  // by id: reschedules itself 1 s on
    const auto schedule = [&](SimTime t, bool chain) {
      const std::uint64_t id = d.schedule(t);
      chained.resize(id + 1, false);
      chained[id] = chain;
    };
    const auto gap = [&] {
      return rng.uniform_int(100, 1100) * kBucketWidth +
             rng.uniform_int(0, kBucketWidth - 1);
    };
    schedule(rng.uniform_int(0, kSec), /*chain=*/true);
    for (int step = 0; step < 3000; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.3) {
        schedule(d.last_pop() + gap(), /*chain=*/false);
      } else if (roll < 0.35) {
        schedule(d.last_pop() + gap(), /*chain=*/true);
      } else if (roll < 0.5) {
        if (const auto lone = d.lone_event()) d.cancel(*lone);
      } else {
        const auto id = d.pop();
        // A chain ends one tick in ten.
        if (id && chained[*id] && rng.chance(0.9)) {
          schedule(d.last_pop() + kSec, /*chain=*/true);
        }
      }
      ASSERT_FALSE(HasFailure()) << "seed " << seed << " step " << step;
    }
    while (d.pop()) {
    }
    ASSERT_FALSE(HasFailure()) << "seed " << seed << " drain";
  }
}

/// The far arm, shaped like ServingEngine::prime: two to four streams of
/// far one-shots are scheduled up front, one stream after another, each
/// ascending over 5-40 horizons. Pops then interleave with far schedules
/// behind the newest far event, near ones anywhere in the horizon (so the
/// wheel holds events past the next block's first bucket, as a cluster
/// tick does), times one microsecond either side of a horizon edge (a far
/// block's first bucket), cancels of far events (every event of one block
/// included) and schedules behind a peek that stopped on a block's first
/// bucket. Every seed leaves a run of two or three blocks empty, so the
/// wheel drains and the cursor jumps the gap.
TEST(EventQueueFuzz, FarBlocksMatchPriorityQueueReference) {
  std::size_t behind_block_peeks = 0;
  std::size_t emptied_blocks = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Differential d;
    // Blocks [quiet_lo, quiet_hi) receive no event ahead of the cursor, and
    // a stream's first event past them sits in block quiet_hi's first bucket.
    const SimTime quiet_lo = rng.uniform_int(1, 2);
    const SimTime quiet_hi = quiet_lo + rng.uniform_int(2, 3);
    const auto quiet = [&](SimTime t) {
      return t >= quiet_lo * kHorizon && t < quiet_hi * kHorizon;
    };
    const auto edge_of = [&](SimTime block) {
      return block * kHorizon + rng.uniform_int(-1, 1);
    };
    SimTime newest = 0;
    const auto schedule = [&](SimTime t) {
      d.schedule(t);
      newest = std::max(newest, t);
    };
    const std::int64_t streams = rng.uniform_int(2, 4);
    for (std::int64_t s = 0; s < streams; ++s) {
      SimTime t = rng.uniform_int(0, kHorizon - 1);
      const SimTime end = t + rng.uniform_int(5, 40) * kHorizon;
      while (true) {
        t = rng.chance(0.1) ? edge_of(t / kHorizon + 1)
                            : t + rng.uniform_int(0, kHorizon / 8);
        if (quiet(t)) {
          t = quiet_hi * kHorizon + rng.uniform_int(0, kBucketWidth - 1);
        }
        if (t >= end) break;
        schedule(t);
      }
    }
    // Peek, and at a block's first bucket sometimes schedule behind the
    // peeked event first, as Simulation::run_until's caller may; then pop.
    const auto pop = [&] {
      const SimTime now = d.last_pop();
      const auto next = d.peek();
      if (next && *next > now && *next % kHorizon < kBucketWidth &&
          rng.chance(0.5)) {
        d.schedule(rng.uniform_int(now, *next - 1));
        ++behind_block_peeks;
      }
      return d.pop().has_value();
    };
    for (int step = 0; step < 3000; ++step) {
      const SimTime now = d.last_pop();
      const double roll = rng.uniform();
      if (roll < 0.15) {
        if (newest > now + kHorizon) {
          const SimTime t = rng.uniform_int(now + kHorizon, newest);
          if (!quiet(t)) schedule(t);
        }
      } else if (roll < 0.25) {
        const SimTime t = now + rng.uniform_int(0, kHorizon - 1);
        if (!quiet(t)) schedule(t);
      } else if (roll < 0.3) {
        const SimTime t =
            std::max(now, edge_of(now / kHorizon + rng.uniform_int(1, 6)));
        if (!quiet(t)) schedule(t);
      } else if (roll < 0.35) {
        std::vector<std::size_t> far;
        for (std::size_t i = 0; i < d.live().size(); ++i) {
          if (d.time_of(d.live()[i]) >= now + kHorizon) far.push_back(i);
        }
        if (!far.empty()) {
          d.cancel(far[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(far.size()) - 1))]);
        }
      } else if (roll < 0.37) {
        // Every event of one far block. Walking down, the entry cancel()
        // moves into slot i was already visited.
        const SimTime block = now / kHorizon + rng.uniform_int(2, 8);
        bool any = false;
        for (std::size_t i = d.live().size(); i-- > 0;) {
          if (d.time_of(d.live()[i]) / kHorizon == block) {
            d.cancel(i);
            any = true;
          }
        }
        if (any) ++emptied_blocks;
      } else {
        pop();
      }
      ASSERT_FALSE(HasFailure()) << "seed " << seed << " step " << step;
    }
    while (pop()) {
    }
    ASSERT_FALSE(HasFailure()) << "seed " << seed << " drain";
  }
  EXPECT_GT(behind_block_peeks, 0u);
  EXPECT_GT(emptied_blocks, 0u);
}

}  // namespace
}  // namespace knots::sim
