// Bucketed event queue for the discrete-event engine.
//
// A two-level calendar queue tuned for the engine's dominant workload —
// dense periodic events (cluster ticks every 10 ms, heartbeats, relaunch
// timers) plus a long tail of far-future one-shots (the load generator
// schedules every pod arrival up front):
//
//  * the *wheel* covers a sliding horizon of kBuckets × kBucketWidth of
//    simulated time. An event at absolute time t lands in absolute bucket
//    t >> kBucketWidthLog2; buckets are plain vectors, appended unsorted
//    and sorted once by (time, seq) when the drain cursor enters them.
//    Near-term inserts and pops are O(1) amortized — no heap percolation.
//    A kBuckets-bit occupancy mask marks the slots holding events: a
//    slot's bit is set on insert and cleared when the slot drains, and a
//    cursor leaving a drained bucket jumps to the next marked slot (with
//    wrap) instead of stepping through each empty one — a 1 s tick crosses
//    about 121 empty buckets;
//  * events past the horizon wait in *far blocks*, appended unsorted: block
//    q holds every far event whose absolute bucket ab has
//    ab >> kBucketsLog2 == q, one horizon's span of time. When the cursor
//    reaches block q's first bucket, the block cascades into the wheel —
//    each event to its own bucket, still unsorted — and those buckets sort
//    when the cursor enters them, like any other. Both cursor jumps (to the
//    next occupied slot, and across an empty wheel) stop at the earliest
//    block's first bucket instead of passing it. A block therefore cascades
//    before the cursor can reach any bucket it holds, and the whole block
//    fits the horizon that starts at its first bucket, so ordering is
//    preserved by construction. Scheduling far costs a map lookup and an
//    append; nothing ever sorts more than one bucket.
//
// Ordering contract (identical to the std::priority_queue it replaced):
// events pop in ascending (time, insertion-sequence) order, so
// same-timestamp events run FIFO and every run replays identically.
//
// cancel(id) lazily tombstones a *pending* event by the id schedule()
// returned; the slot is skipped (and the handler destroyed) when the
// cursor reaches it. Canceling an id that already fired or was already
// canceled is undefined (the engine never does it; the fuzz suite tracks
// liveness explicitly).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <unordered_set>
#include <vector>

#include "core/types.hpp"

namespace knots::sim {

class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Wheel geometry: 2^13 us (~8.2 ms) buckets — about one cluster tick —
  /// and 2^10 of them (~8.4 s horizon), comfortably past the crash (3 s)
  /// and eviction (5 s) relaunch delays.
  static constexpr int kBucketWidthLog2 = 13;
  static constexpr std::size_t kBucketsLog2 = 10;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketsLog2;

  EventQueue() : buckets_(kBuckets) {}

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Bytes one queued event occupies (inputs bound their event load by it).
  static constexpr std::size_t event_bytes() noexcept { return sizeof(Event); }

  /// Enqueues `fn` at absolute time `t` (must be >= the time of the last
  /// event popped). Returns the event's id (its insertion sequence).
  std::uint64_t schedule(SimTime t, Handler fn);

  /// Tombstones the pending event `id` (see header contract).
  void cancel(std::uint64_t id);

  /// Time of the earliest pending event; false when empty. Performs far
  /// block cascades and bucket sorting as a side effect, so a subsequent
  /// pop() is O(1).
  [[nodiscard]] bool peek_time(SimTime& t);

  /// Extracts the earliest event into `t`/`fn`; false when empty.
  bool pop(SimTime& t, Handler& fn);

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Handler fn;
  };
  static bool event_before(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  static std::int64_t bucket_of(SimTime t) noexcept {
    return static_cast<std::int64_t>(t >> kBucketWidthLog2);
  }
  static std::size_t slot_of(std::int64_t ab) noexcept {
    return static_cast<std::size_t>(ab) & (kBuckets - 1);
  }
  static constexpr std::size_t kMaskWords = kBuckets / 64;
  static constexpr std::uint64_t bit_of(std::size_t s) noexcept {
    return std::uint64_t{1} << (s & 63);
  }
  [[nodiscard]] bool occupied(std::size_t s) const noexcept {
    return (occupied_[s >> 6] & bit_of(s)) != 0;
  }
  /// Empties a drained slot and clears its occupancy bit.
  void release(std::size_t s) noexcept {
    buckets_[s].clear();
    occupied_[s >> 6] &= ~bit_of(s);
  }
  /// Buckets from slot `s` to the next occupied slot after it, with wrap.
  [[nodiscard]] std::int64_t distance_to_occupied(std::size_t s) const;
  [[nodiscard]] bool in_horizon(std::int64_t ab) const noexcept {
    return ab < cur_ab_ + static_cast<std::int64_t>(kBuckets);
  }
  /// First bucket of the earliest far block; the maximum when none waits.
  [[nodiscard]] std::int64_t far_start() const noexcept {
    return far_.empty() ? std::numeric_limits<std::int64_t>::max()
                        : far_.begin()->first << kBucketsLog2;
  }

  void insert_wheel(Event ev);
  /// Moves the cursor to absolute bucket `ab` (never past far_start()),
  /// cascading the earliest far block into the wheel when `ab` is its
  /// first bucket.
  void move_cursor(std::int64_t ab);
  /// Positions (cur_ab_, cur_pos_) at the earliest live event. Returns
  /// false when the queue is empty.
  bool prepare_next();

  std::vector<std::vector<Event>> buckets_;
  std::array<std::uint64_t, kMaskWords> occupied_{};  ///< Bit per slot.
  /// Far blocks by index (absolute bucket >> kBucketsLog2), each unsorted.
  std::map<std::int64_t, std::vector<Event>> far_;
  std::int64_t cur_ab_ = 0;           ///< Cursor's absolute bucket.
  std::size_t cur_pos_ = 0;           ///< Next index in the current bucket.
  bool cur_sorted_ = false;           ///< Current bucket sorted & draining.
  std::size_t wheel_total_ = 0;       ///< Wheel events, tombstoned included.
  std::size_t size_ = 0;              ///< Live events, wheel + far blocks.
  std::uint64_t next_seq_ = 0;
  std::unordered_set<std::uint64_t> canceled_;
};

}  // namespace knots::sim
