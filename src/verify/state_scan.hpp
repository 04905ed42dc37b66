// Per-tick diff of the cluster's packed pod-state table against the
// auditor's mirror of the previous audit.
//
// InvariantChecker::check_pods runs this scan on every tick. Nearly all of
// a long run's table is frozen pods (Pending, Completed, Crashed, Evicted)
// that did not move since the last audit, so the scan compares table and
// mirror eight bytes at a time: a word equal to its mirror whose bytes are
// all frozen states only adds its per-state counts to the histogram. Every
// other word, and the n % 8 tail, is walked one byte at a time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/pod.hpp"

namespace knots::verify {

/// Number of PodState values; a packed byte at or above it names no state.
inline constexpr std::size_t kPodStates = 6;

/// Pods per packed state, indexed by the PodState byte.
using StateHistogram = std::array<std::size_t, kPodStates>;

/// Transitions observable between two consecutive tick-end audits. These
/// are the closures of the single-step transitions in pod.hpp over one
/// tick: e.g. a crashed pod can requeue *and* be re-placed within one tick,
/// so Crashed → Starting is observable even though the state machine only
/// allows Crashed → Pending → Starting.
[[nodiscard]] bool observable_transition(cluster::PodState from,
                                         cluster::PodState to) noexcept;

/// One pod the scan could not skip.
struct PodStateHit {
  std::size_t pod = 0;
  std::uint8_t prev = 0;  ///< Mirror byte: the previous audit's state.
  std::uint8_t cur = 0;   ///< Table byte: this audit's state.
  /// `cur` names no PodState: the pod is not counted and nothing else about
  /// it is checked.
  bool out_of_range = false;
  /// The pod changed state along an edge observable_transition rejects.
  bool illegal = false;

  friend bool operator==(const PodStateHit&, const PodStateHit&) = default;
};

/// Diffs `table` against `mirror` (same length) and then copies the table
/// into the mirror. Overwrites `histogram` with the per-state counts of the
/// in-range bytes, and `hits`, in ascending pod order, with every pod whose
/// byte is out of range, changed, or live (Starting/Running: progress and
/// residency move without a state edge). Every hit that is not out of range
/// is a pod the auditor dereferences.
void scan_pod_states(std::span<const std::uint8_t> table,
                     std::span<std::uint8_t> mirror, StateHistogram& histogram,
                     std::vector<PodStateHit>& hits);

}  // namespace knots::verify
