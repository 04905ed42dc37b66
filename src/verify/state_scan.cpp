#include "verify/state_scan.hpp"

#include <cstring>

#include "core/check.hpp"

namespace knots::verify {

namespace {

using S = cluster::PodState;

constexpr std::uint64_t kOnes = 0x0101010101010101ull;
constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
constexpr std::uint64_t kHigh = ~kLow7;

/// High bit of byte k set iff byte k of `word` is `state`. Exact for every
/// byte: adding 0x7f to a byte's low seven bits never carries into the next.
constexpr std::uint64_t bytes_equal(std::uint64_t word, S state) noexcept {
  const std::uint64_t x = word ^ (kOnes * static_cast<std::uint8_t>(state));
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

/// Number of bytes flagged in a bytes_equal() mask: the multiply sums the
/// eight 0/1 bytes into the top byte. (Without -mpopcnt, std::popcount is a
/// libgcc call.)
constexpr std::size_t flagged(std::uint64_t mask) noexcept {
  return static_cast<std::size_t>(((mask >> 7) * kOnes) >> 56);
}

static_assert(static_cast<std::size_t>(S::kEvicted) + 1 == kPodStates,
              "kPodStates must count every PodState");
static_assert(flagged(bytes_equal(0x0500030400000500ull, S::kPending)) == 4);
static_assert(flagged(bytes_equal(0x0500030400000500ull, S::kEvicted)) == 2);
static_assert(flagged(bytes_equal(0xff01020304050600ull, S::kRunning)) == 1);

/// The byte-at-a-time path over pods [from, to): each pod's checks exactly
/// as if no word had been skipped. The mirror takes the table's bytes.
void scan_bytes(std::span<const std::uint8_t> table,
                std::span<std::uint8_t> mirror, std::size_t from,
                std::size_t to, StateHistogram& histogram,
                std::vector<PodStateHit>& hits) {
  for (std::size_t k = from; k < to; ++k) {
    const std::uint8_t cur = table[k];
    const std::uint8_t prev = mirror[k];
    mirror[k] = cur;
    if (cur >= kPodStates) {
      hits.push_back({k, prev, cur, true, false});
      continue;
    }
    histogram[cur] += 1;
    const bool changed = cur != prev;
    const bool live = cur == static_cast<std::uint8_t>(S::kStarting) ||
                      cur == static_cast<std::uint8_t>(S::kRunning);
    if (changed || live) {
      hits.push_back({k, prev, cur, false,
                      changed && !observable_transition(static_cast<S>(prev),
                                                        static_cast<S>(cur))});
    }
  }
}

/// Skips the words from byte `i` on that equal their mirror and hold only
/// frozen states, adds their per-state counts to `histogram`, and returns
/// the byte index of the first word that needs the byte path (or `end`).
/// Such a word decides every per-byte check at once: an unchanged state is
/// a legal transition, a frozen state needs no dereference, and a byte
/// equal to a state is in range. The loop makes no calls, so its counts
/// stay in registers.
std::size_t skip_frozen_words(std::span<const std::uint8_t> table,
                              std::span<const std::uint8_t> mirror,
                              std::size_t i, std::size_t end,
                              StateHistogram& histogram) {
  std::size_t pending = 0, completed = 0, crashed = 0, evicted = 0;
  for (; i < end; i += 8) {
    std::uint64_t cur = 0;
    std::uint64_t prev = 0;
    std::memcpy(&cur, table.data() + i, sizeof cur);
    std::memcpy(&prev, mirror.data() + i, sizeof prev);
    if (cur != prev) break;
    // Pod ids follow arrival order, so a long run's table is mostly runs of
    // one state: Completed behind the arrival frontier, Pending ahead of
    // it. Such a word takes one compare.
    if (cur == kOnes * static_cast<std::uint8_t>(S::kCompleted)) {
      completed += 8;
      continue;
    }
    if (cur == kOnes * static_cast<std::uint8_t>(S::kPending)) {
      pending += 8;
      continue;
    }
    const std::uint64_t p = bytes_equal(cur, S::kPending);
    const std::uint64_t c = bytes_equal(cur, S::kCompleted);
    const std::uint64_t x = bytes_equal(cur, S::kCrashed);
    const std::uint64_t e = bytes_equal(cur, S::kEvicted);
    if ((p | c | x | e) != kHigh) break;
    pending += flagged(p);
    completed += flagged(c);
    crashed += flagged(x);
    evicted += flagged(e);
  }
  histogram[static_cast<std::size_t>(S::kPending)] += pending;
  histogram[static_cast<std::size_t>(S::kCompleted)] += completed;
  histogram[static_cast<std::size_t>(S::kCrashed)] += crashed;
  histogram[static_cast<std::size_t>(S::kEvicted)] += evicted;
  return i;
}

}  // namespace

bool observable_transition(cluster::PodState from,
                           cluster::PodState to) noexcept {
  if (from == to) return true;
  switch (from) {
    case S::kPending:
      return to == S::kStarting;
    case S::kStarting:
      return to == S::kRunning || to == S::kCrashed || to == S::kEvicted;
    case S::kRunning:
      return to == S::kCompleted || to == S::kCrashed || to == S::kEvicted;
    case S::kCrashed:
      return to == S::kPending || to == S::kStarting;
    case S::kEvicted:
      return to == S::kPending || to == S::kStarting;
    case S::kCompleted:
      return false;  // Terminal.
  }
  return false;
}

void scan_pod_states(std::span<const std::uint8_t> table,
                     std::span<std::uint8_t> mirror, StateHistogram& histogram,
                     std::vector<PodStateHit>& hits) {
  KNOTS_CHECK(mirror.size() == table.size());
  histogram.fill(0);
  hits.clear();
  const std::size_t n = table.size();
  const std::size_t words_end = n - n % 8;
  std::size_t i = skip_frozen_words(table, mirror, 0, words_end, histogram);
  while (i < words_end) {
    scan_bytes(table, mirror, i, i + 8, histogram, hits);
    i = skip_frozen_words(table, mirror, i + 8, words_end, histogram);
  }
  scan_bytes(table, mirror, words_end, n, histogram, hits);
}

}  // namespace knots::verify
