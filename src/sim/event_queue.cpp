#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/check.hpp"

namespace knots::sim {

void EventQueue::insert(SimTime t, std::uint64_t seq, Handler fn) {
  Event ev{t, seq, std::move(fn)};
  const std::int64_t ab = bucket_of(t);
  if (in_horizon(ab)) {
    insert_wheel(std::move(ev));
  } else {
    far_[ab >> kBucketsLog2].push_back(std::move(ev));
  }
  ++size_;
}

void EventQueue::cancel(std::uint64_t id) {
  KNOTS_CHECK_MSG(size_ > 0, "cancel on an empty queue");
  canceled_.insert(id);
  --size_;
}

bool EventQueue::peek_time(SimTime& t) {
  if (!prepare_next()) return false;
  t = buckets_[slot_of(cur_ab_)][cur_pos_].time;
  return true;
}

bool EventQueue::pop(SimTime& t, Handler& fn) {
  if (!prepare_next()) return false;
  const std::size_t s = slot_of(cur_ab_);
  auto& b = buckets_[s];
  Event& ev = b[cur_pos_];
  t = ev.time;
  fn = std::move(ev.fn);
  ++cur_pos_;
  --wheel_total_;
  --size_;
  // Clear the bucket the moment it drains: a slot must be empty before the
  // sliding horizon maps a later absolute bucket onto it.
  if (cur_pos_ == b.size()) {
    release(s);
    cur_pos_ = 0;
  }
  return true;
}

void EventQueue::insert_wheel(Event ev) {
  std::int64_t ab = bucket_of(ev.time);
  // The cursor may sit past this bucket: run_until() peeks the next event
  // (advancing the cursor over empty buckets), stops at its time bound, and
  // the caller then schedules between the bound and the peeked event. Every
  // bucket the cursor skipped was empty, so redirecting into the cursor's
  // bucket keeps pop order exact — the event's (time, seq) sorts before
  // everything the wheel still holds.
  if (ab < cur_ab_) ab = cur_ab_;
  const std::size_t s = slot_of(ab);
  occupied_[s >> 6] |= bit_of(s);
  auto& b = buckets_[s];
  if (ab == cur_ab_ && cur_sorted_) {
    // Sorted insert into the draining bucket's pending region. Popped
    // entries in [0, cur_pos_) all precede `ev` — its time is >= now and
    // its seq is fresh, or it is a replayed entry whose key follows the
    // entry that just popped — so [cur_pos_, end) is the search window.
    auto it = std::upper_bound(
        b.begin() + static_cast<std::ptrdiff_t>(cur_pos_), b.end(), ev,
        [](const Event& a, const Event& x) { return event_before(a, x); });
    b.insert(it, std::move(ev));
  } else {
    b.push_back(std::move(ev));
  }
  ++wheel_total_;
}

void EventQueue::move_cursor(std::int64_t ab) {
  cur_ab_ = ab;
  cur_pos_ = 0;
  cur_sorted_ = false;
  if (ab != far_start()) return;
  // The block's events all lie in [ab, ab + kBuckets), the horizon that
  // starts here, and the cursor has entered none of their buckets yet.
  const auto block = far_.begin();
  for (Event& ev : block->second) insert_wheel(std::move(ev));
  far_.erase(block);
}

bool EventQueue::prepare_next() {
  if (size_ == 0) return false;
  while (true) {
    if (wheel_total_ == 0) {
      // Every live event waits in a far block: jump the cursor to the
      // earliest block's first bucket, which cascades it. All wheel slots
      // are empty, so the jump cannot alias live storage.
      KNOTS_CHECK_MSG(!far_.empty(), "live events lost");
      move_cursor(far_start());
      continue;
    }
    const std::size_t s = slot_of(cur_ab_);
    if (!occupied(s)) {
      // The cursor's bucket drained: jump to the next occupied slot, or to
      // the earliest far block's first bucket when that comes first. The
      // horizon holds each slot's one absolute bucket, so every bucket
      // skipped is empty. A cascaded block need not fill its first bucket,
      // so the landing slot is checked again.
      move_cursor(std::min(cur_ab_ + distance_to_occupied(s), far_start()));
      continue;
    }
    auto& b = buckets_[s];
    if (!cur_sorted_) {
      std::sort(b.begin(), b.end(), event_before);
      cur_sorted_ = true;
      cur_pos_ = 0;
    }
    while (cur_pos_ < b.size()) {
      auto it = canceled_.find(b[cur_pos_].seq);
      if (it == canceled_.end()) return true;
      canceled_.erase(it);
      ++cur_pos_;
      --wheel_total_;
    }
    release(s);
    cur_pos_ = 0;
    cur_sorted_ = false;
  }
}

std::int64_t EventQueue::distance_to_occupied(std::size_t s) const {
  // Scan the mask from the slot after `s`, ending back in the word that
  // holds it: the last pass catches slots that wrapped past kBuckets - 1.
  const std::size_t from = (s + 1) & (kBuckets - 1);
  std::size_t w = from >> 6;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from & 63));
  for (std::size_t i = 0; i <= kMaskWords; ++i) {
    if (bits != 0) {
      const std::size_t next =
          (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
      return static_cast<std::int64_t>((next - s) & (kBuckets - 1));
    }
    w = (w + 1) % kMaskWords;
    bits = occupied_[w];
  }
  KNOTS_CHECK_MSG(false, "wheel events in no occupied slot");
  return 1;
}

}  // namespace knots::sim
