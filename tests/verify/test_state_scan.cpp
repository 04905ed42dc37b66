// Differential test of the invariant audit's word-at-a-time state-table
// scan against a byte-at-a-time reference: seeded random tables holding all
// six pod states plus out-of-range bytes, scattered or in arrival order
// (the long runs of one state a real table holds), every length residue
// mod 8, and per-tick edits (legal transitions, illegal ones, and
// corruption of frozen bytes). Histogram, visited pods, violations and the
// updated mirror must match the reference on every tick.
#include "verify/state_scan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace knots::verify {
namespace {

using S = cluster::PodState;

constexpr std::uint8_t kPending = 0;
constexpr std::uint8_t kStarting = 1;
constexpr std::uint8_t kRunning = 2;
constexpr std::uint8_t kCompleted = 3;
constexpr std::uint8_t kCrashed = 4;
constexpr std::uint8_t kEvicted = 5;

/// kLegal[from][to]: pod.hpp's state machine closed over one tick, written
/// out independently of the library's observable_transition.
constexpr bool kLegal[6][6] = {
    // to: P      St     R      C      X      E
    {true, true, false, false, false, false},  // from Pending
    {false, true, true, false, true, true},    // from Starting
    {false, false, true, true, true, true},    // from Running
    {false, false, false, true, false, false},  // from Completed
    {true, true, false, false, true, false},   // from Crashed
    {true, true, false, false, false, true},   // from Evicted
};

constexpr std::uint8_t kFrozen[] = {kPending, kCompleted, kCrashed, kEvicted};

/// The audit as it was before the word skip: every pod, one byte at a time.
void reference_scan(const std::vector<std::uint8_t>& table,
                    std::vector<std::uint8_t>& mirror,
                    StateHistogram& histogram,
                    std::vector<PodStateHit>& hits) {
  histogram.fill(0);
  hits.clear();
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::uint8_t cur = table[i];
    const std::uint8_t prev = mirror[i];
    if (cur >= kPodStates) {
      hits.push_back({i, prev, cur, true, false});
      continue;
    }
    histogram[cur] += 1;
    const bool changed = cur != prev;
    const bool live = cur == kStarting || cur == kRunning;
    if (changed || live) {
      const bool legal = prev < kPodStates && kLegal[prev][cur];
      hits.push_back({i, prev, cur, false, changed && !legal});
    }
  }
  mirror = table;
}

/// A byte that names no state. Half of them set the high bit over a state
/// value, the pattern a carry-leaking byte compare would mistake for it.
std::uint8_t out_of_range_byte(Rng& rng) {
  if (rng.chance(0.5)) {
    return static_cast<std::uint8_t>(0x80 | rng.uniform_int(0, 5));
  }
  return static_cast<std::uint8_t>(rng.uniform_int(kPodStates, 0xff));
}

struct Mix {
  double live = 0;          ///< Starting or Running.
  double out_of_range = 0;  ///< Anything else is a frozen state.
};

std::uint8_t random_byte(Rng& rng, const Mix& mix) {
  const double u = rng.uniform();
  if (u < mix.live) {
    return rng.chance(0.5) ? kStarting : kRunning;
  }
  if (u < mix.live + mix.out_of_range) return out_of_range_byte(rng);
  return kFrozen[rng.uniform_int(0, 3)];
}

/// A table of `n` pods. Scattered tables draw every byte from `mix`.
/// Arrival-ordered ones look like a long run's table, where pod ids follow
/// arrival: Completed pods behind a frontier, a band drawn from `mix`, and
/// Pending pods ahead of it.
std::vector<std::uint8_t> random_table(Rng& rng, std::size_t n, const Mix& mix,
                                       bool arrival_ordered) {
  std::vector<std::uint8_t> table(n);
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  std::size_t band_begin = 0;
  std::size_t band_end = n;
  if (arrival_ordered) {
    band_begin = pick();
    band_end = pick();
    if (band_end < band_begin) std::swap(band_begin, band_end);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i < band_begin) {
      table[i] = kCompleted;
    } else if (i >= band_end) {
      table[i] = kPending;
    } else {
      table[i] = random_byte(rng, mix);
    }
  }
  return table;
}

/// One random edit: a legal transition, an illegal one, or a frozen byte
/// corrupted into another frozen state or out of range.
void edit(std::vector<std::uint8_t>& table, Rng& rng) {
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(table.size()) - 1));
  const std::uint8_t from = table[i];
  const double u = rng.uniform();
  if (from >= kPodStates) {
    table[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 5));
  } else if (u < 0.4) {
    std::vector<std::uint8_t> next;
    for (std::uint8_t to = 0; to < kPodStates; ++to) {
      if (to != from && kLegal[from][to]) next.push_back(to);
    }
    if (!next.empty()) {
      table[i] = next[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(next.size()) - 1))];
    }
  } else if (u < 0.7) {
    std::vector<std::uint8_t> next;
    for (std::uint8_t to = 0; to < kPodStates; ++to) {
      if (!kLegal[from][to]) next.push_back(to);
    }
    if (!next.empty()) {
      table[i] = next[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(next.size()) - 1))];
    }
  } else {
    // Corrupt a frozen byte: the pod's word stays all-frozen, or gains a
    // byte that names no state.
    for (int tries = 0; tries < 16; ++tries) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(table.size()) - 1));
      const std::uint8_t b = table[j];
      if (b == kStarting || b == kRunning || b >= kPodStates) continue;
      table[j] = rng.chance(0.8) ? kFrozen[rng.uniform_int(0, 3)]
                                 : out_of_range_byte(rng);
      break;
    }
  }
}

TEST(StateScan, EmptyTable) {
  std::vector<std::uint8_t> table, mirror;
  StateHistogram histogram;
  histogram.fill(7);
  std::vector<PodStateHit> hits{{1, 2, 3, false, false}};
  scan_pod_states(table, mirror, histogram, hits);
  EXPECT_EQ(histogram, StateHistogram{});
  EXPECT_TRUE(hits.empty());
}

TEST(StateScan, UnchangedLiveAndOutOfRangeWordsAreNotSkipped) {
  // Word 0: all Completed except one Running pod. Word 1: all Evicted but
  // one out-of-range byte. Word 2: all Pending (skipped). Tail: Crashed.
  std::vector<std::uint8_t> table(27, kCompleted);
  table[5] = kRunning;
  for (std::size_t i = 8; i < 16; ++i) table[i] = kEvicted;
  table[12] = 0x83;
  for (std::size_t i = 16; i < 24; ++i) table[i] = kPending;
  for (std::size_t i = 24; i < 27; ++i) table[i] = kCrashed;
  std::vector<std::uint8_t> mirror = table;
  StateHistogram histogram;
  std::vector<PodStateHit> hits;
  for (int tick = 0; tick < 2; ++tick) {
    scan_pod_states(table, mirror, histogram, hits);
    EXPECT_EQ(histogram, (StateHistogram{8, 0, 1, 7, 3, 7}));
    const std::vector<PodStateHit> want{{5, kRunning, kRunning, false, false},
                                        {12, 0x83, 0x83, true, false}};
    EXPECT_EQ(hits, want);
    EXPECT_EQ(mirror, table);
  }
}

TEST(StateScan, ChangedFrozenWordIsVisited) {
  std::vector<std::uint8_t> mirror(16, kCompleted);
  std::vector<std::uint8_t> table = mirror;
  table[3] = kPending;   // Completed -> Pending: illegal.
  table[11] = kCrashed;  // Completed -> Crashed: illegal.
  StateHistogram histogram;
  std::vector<PodStateHit> hits;
  scan_pod_states(table, mirror, histogram, hits);
  EXPECT_EQ(histogram, (StateHistogram{1, 0, 0, 14, 1, 0}));
  const std::vector<PodStateHit> want{{3, kCompleted, kPending, false, true},
                                      {11, kCompleted, kCrashed, false, true}};
  EXPECT_EQ(hits, want);
  EXPECT_EQ(mirror, table);
}

TEST(StateScan, TransitionTableMatchesPodStateMachine) {
  for (std::uint8_t from = 0; from < kPodStates; ++from) {
    for (std::uint8_t to = 0; to < kPodStates; ++to) {
      EXPECT_EQ(observable_transition(static_cast<S>(from), static_cast<S>(to)),
                kLegal[from][to])
          << int(from) << " -> " << int(to);
    }
  }
}

TEST(StateScanFuzz, MatchesByteAtATimeReference) {
  Rng rng(0x5ca11ab1e);
  const Mix mixes[] = {
      {0.015, 0.0},   // fleet-serve-like: a few live pods in a frozen table
      {0.04, 0.002},  // pods-1k-like: live pods spread over the table
      {0.3, 0.05},    // dense: every state everywhere
  };
  StateHistogram seen{};
  std::size_t seen_out_of_range = 0;
  std::size_t skipped_words = 0;
  for (std::size_t residue = 0; residue < 8; ++residue) {
    for (const Mix& mix : mixes) {
      for (int rep = 0; rep < 4; ++rep) {
        const std::size_t n =
            residue + 8 * static_cast<std::size_t>(rng.uniform_int(0, 400));
        std::vector<std::uint8_t> table =
            random_table(rng, n, mix, /*arrival_ordered=*/rep % 2 == 1);
        // The checker's first audit baselines every pod at Pending.
        std::vector<std::uint8_t> mirror(n, kPending);
        std::vector<std::uint8_t> ref_mirror = mirror;
        StateHistogram histogram, ref_histogram;
        std::vector<PodStateHit> hits, ref_hits;
        for (int tick = 0; tick < 24; ++tick) {
          if (tick > 0 && n > 0) {
            const auto edits =
                rng.uniform_int(0, 1 + static_cast<std::int64_t>(n) / 64);
            for (std::int64_t e = 0; e < edits; ++e) edit(table, rng);
          }
          for (std::size_t w = 0; w + 8 <= n; w += 8) {
            bool frozen = true;
            for (std::size_t k = w; k < w + 8; ++k) {
              frozen &= table[k] == mirror[k] && table[k] < kPodStates &&
                        table[k] != kStarting && table[k] != kRunning;
            }
            skipped_words += frozen ? 1 : 0;
          }
          scan_pod_states(table, mirror, histogram, hits);
          reference_scan(table, ref_mirror, ref_histogram, ref_hits);
          ASSERT_EQ(histogram, ref_histogram)
              << "n=" << n << " tick=" << tick;
          ASSERT_EQ(hits, ref_hits) << "n=" << n << " tick=" << tick;
          ASSERT_EQ(mirror, ref_mirror) << "n=" << n << " tick=" << tick;
          for (std::size_t s = 0; s < kPodStates; ++s) seen[s] += histogram[s];
          for (const auto& hit : hits) seen_out_of_range += hit.out_of_range;
        }
      }
    }
  }
  // The inputs exercised every state, out-of-range bytes and the skip.
  for (std::size_t s = 0; s < kPodStates; ++s) EXPECT_GT(seen[s], 0u) << s;
  EXPECT_GT(seen_out_of_range, 0u);
  EXPECT_GT(skipped_words, 0u);
}

}  // namespace
}  // namespace knots::verify
