// Fault-injection state machine.
//
// Tracks which fault effects are live on each node (down, heartbeat-muted,
// PCIe-stalled) and tallies every transition. The Cluster owns one injector
// per run: it schedules the plan's events on the simulation engine, applies
// the physical consequences (eviction, power-off, muted samplers, slowed
// progress) and records each transition here; schedulers observe the result
// through Cluster::node_health() and the Scheduler's on_node_down /
// on_node_up / on_telemetry_stale hooks.
//
// The injector itself never touches cluster state — it is a pure record of
// what is currently broken, so it stays deterministic and trivially
// testable.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "fault/fault_plan.hpp"

namespace knots::fault {

/// Counters distilled onto the ExperimentReport.
struct FaultStats {
  std::uint64_t node_crashes = 0;
  std::uint64_t node_recoveries = 0;
  std::uint64_t pods_evicted = 0;
  std::uint64_t ecc_degrades = 0;
  std::uint64_t heartbeat_gaps = 0;
  std::uint64_t pcie_stalls = 0;
  /// Fresh → stale telemetry edges observed by the aggregator rule.
  std::uint64_t stale_transitions = 0;

  [[nodiscard]] std::uint64_t faults_applied() const noexcept {
    return node_crashes + ecc_degrades + heartbeat_gaps + pcie_stalls;
  }

  bool operator==(const FaultStats&) const = default;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::size_t node_count) : nodes_(node_count) {}

  // -- Transitions (applied by the Cluster at event time) --
  void note_node_down(NodeId node);
  void note_node_up(NodeId node);
  void note_heartbeat_gap(NodeId node, SimTime until);
  /// `now` disambiguates overlap: concurrent stalls compound to the worst
  /// factor, a stall starting after the previous one expired replaces it.
  void note_pcie_stall(NodeId node, SimTime now, SimTime until,
                       double slowdown);
  void note_ecc_degrade(NodeId node);
  void note_evictions(std::uint64_t pods) { stats_.pods_evicted += pods; }
  void note_stale_transition() { ++stats_.stale_transitions; }

  // -- Queries --
  [[nodiscard]] bool node_down(NodeId node) const;
  /// True while the node's telemetry heartbeats are suppressed (explicit
  /// gap, or the node is down — dead nodes do not report).
  [[nodiscard]] bool heartbeat_muted(NodeId node, SimTime now) const;
  /// Progress slowdown factor from an active PCIe stall (1.0 when none).
  [[nodiscard]] double pcie_slowdown(NodeId node, SimTime now) const;
  /// True when any transient effect could still be live (fast-path gate for
  /// the per-tick scans; never true for an untouched cluster).
  [[nodiscard]] bool any_effects() const noexcept { return touched_; }

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }

 private:
  struct NodeState {
    bool down = false;
    SimTime mute_until = -1;
    SimTime stall_until = -1;
    double stall_factor = 1.0;
  };
  [[nodiscard]] const NodeState& state(NodeId node) const;
  [[nodiscard]] NodeState& state(NodeId node);

  std::vector<NodeState> nodes_;
  FaultStats stats_{};
  bool touched_ = false;
};

}  // namespace knots::fault
