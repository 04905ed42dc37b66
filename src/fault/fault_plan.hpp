// Deterministic fault-injection plans.
//
// A FaultPlan is a seed-free, fully explicit list of fault events against
// simulated time: which node fails, when, for how long, and how badly. The
// cluster schedules every event on its discrete-event engine, so two runs
// with identical (config, seed, plan) replay identically — faults are part
// of the experiment, not noise on top of it.
//
// Event taxonomy (DESIGN.md §7):
//   kNodeCrash      — the worker node dies: every resident pod is evicted
//                     back to pending (relaunch penalty), telemetry stops,
//                     power drops to zero; recovers after `duration`
//                     (0 = never).
//   kGpuEccDegrade  — sticky double-bit ECC errors retire `severity` MB of
//                     device memory on every GPU of the node, permanently
//                     shrinking usable capacity.
//   kHeartbeatLoss  — the node keeps running but its telemetry heartbeats
//                     are dropped for `duration`; after K missed beats the
//                     aggregator marks the series stale.
//   kPcieStall      — transient PCIe degradation: progress of the node's
//                     residents is slowed by factor `severity` for
//                     `duration`.
//   kLinkDegrade    — a named fabric link runs at 1/`severity` of its
//                     bandwidth for `duration` (flaky optic, congested
//                     uplink). Requires a fabric (knots::net).
//   kLinkDown       — a named fabric link carries nothing for `duration`
//                     (0 = never restored). Flows over it stall until it
//                     recovers or they are rerouted by a new placement.
//   kSpotReclaim    — the cloud provider reclaims a *preemptible* node: the
//                     warning notice comes at `at`, then after the node's
//                     NodeSpec::spot_notice grace the node goes down
//                     exactly like a crash (pods evicted back to pending
//                     via the kEvicted requeue path); capacity returns
//                     after `duration` (0 = never).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"

namespace knots::fault {

enum class FaultKind {
  kNodeCrash,
  kGpuEccDegrade,
  kHeartbeatLoss,
  kPcieStall,
  kLinkDegrade,
  kLinkDown,
  kSpotReclaim,
};

std::string_view to_string(FaultKind kind) noexcept;

/// One planned fault against a node or a fabric link.
struct FaultEvent {
  FaultKind kind = FaultKind::kNodeCrash;
  NodeId node{};         ///< Target node; unused (invalid) for link faults.
  SimTime at = 0;        ///< Injection time.
  SimTime duration = 0;  ///< Crash/gap/stall length; 0 = permanent.
  double severity = 0.0; ///< ECC: retired MB per GPU; PCIe/link: slowdown >= 1.
  std::string link{};    ///< Fabric link name; only link faults set it.

  bool operator==(const FaultEvent&) const = default;
};

/// Explicit fault schedule. Fluent builders append events; the cluster
/// validates targets against its topology when the plan is installed.
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }

  FaultPlan& node_crash(NodeId node, SimTime at, SimTime down_for = 0);
  FaultPlan& gpu_ecc_degrade(NodeId node, SimTime at, double retired_mb);
  FaultPlan& heartbeat_loss(NodeId node, SimTime at, SimTime gap);
  FaultPlan& pcie_stall(NodeId node, SimTime at, SimTime stall_for,
                        double slowdown);
  FaultPlan& link_down(std::string link, SimTime at, SimTime down_for = 0);
  FaultPlan& link_degrade(std::string link, SimTime at, SimTime degrade_for,
                          double slowdown);
  FaultPlan& spot_reclaim(NodeId node, SimTime at, SimTime down_for = 0);

  /// Aborts (KNOTS_CHECK) when an event targets a node outside
  /// [0, node_count), names a fabric link not in `links` (with no fabric,
  /// every link fault is rejected), has a negative time, carries a
  /// nonsense severity, or reclaims a node `preemptible_nodes` does not
  /// mark as spot (an empty mask rejects every reclaim — only clusters
  /// with spot capacity accept them).
  void validate(int node_count, const std::vector<std::string>& links,
                const std::vector<bool>& preemptible_nodes = {}) const;
  /// Topology-only validation: same checks against an empty link set, so
  /// plans with link faults are rejected unless the fabric overload is used.
  void validate(int node_count) const { validate(node_count, {}); }

  bool operator==(const FaultPlan&) const = default;
};

/// Knobs for seed-driven random plan generation (chaos-monkey harness).
struct RandomFaultSpec {
  double node_crash_rate_per_min = 0.0;
  double heartbeat_loss_rate_per_min = 0.0;
  double pcie_stall_rate_per_min = 0.0;
  SimTime mean_downtime = 20 * kSec;
  SimTime mean_gap = 5 * kSec;
  SimTime mean_stall = 2 * kSec;
  double stall_slowdown = 4.0;
};

/// Samples a plan over [0, horizon): Poisson arrivals per fault class,
/// uniform node targets, exponential durations. Deterministic in `seed`.
[[nodiscard]] FaultPlan random_plan(const RandomFaultSpec& spec, int nodes,
                                    SimTime horizon, std::uint64_t seed);

}  // namespace knots::fault
