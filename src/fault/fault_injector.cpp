#include "fault/fault_injector.hpp"

#include "core/check.hpp"

namespace knots::fault {

const FaultInjector::NodeState& FaultInjector::state(NodeId node) const {
  KNOTS_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value) < nodes_.size());
  return nodes_[static_cast<std::size_t>(node.value)];
}

FaultInjector::NodeState& FaultInjector::state(NodeId node) {
  KNOTS_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value) < nodes_.size());
  return nodes_[static_cast<std::size_t>(node.value)];
}

void FaultInjector::note_node_down(NodeId node) {
  NodeState& s = state(node);
  KNOTS_CHECK_MSG(!s.down, "node crashed while already down");
  s.down = true;
  ++stats_.node_crashes;
  touched_ = true;
}

void FaultInjector::note_node_up(NodeId node) {
  NodeState& s = state(node);
  KNOTS_CHECK_MSG(s.down, "node recovered while already up");
  s.down = false;
  ++stats_.node_recoveries;
}

void FaultInjector::note_heartbeat_gap(NodeId node, SimTime until) {
  NodeState& s = state(node);
  s.mute_until = std::max(s.mute_until, until);
  ++stats_.heartbeat_gaps;
  touched_ = true;
}

void FaultInjector::note_pcie_stall(NodeId node, SimTime now, SimTime until,
                                    double slowdown) {
  KNOTS_CHECK(slowdown >= 1.0);
  NodeState& s = state(node);
  s.stall_factor =
      now < s.stall_until ? std::max(s.stall_factor, slowdown) : slowdown;
  s.stall_until = std::max(s.stall_until, until);
  ++stats_.pcie_stalls;
  touched_ = true;
}

void FaultInjector::note_ecc_degrade(NodeId node) {
  // Bounds check only; the retired pages live on the device.
  (void)state(node);
  ++stats_.ecc_degrades;
  touched_ = true;
}

bool FaultInjector::node_down(NodeId node) const { return state(node).down; }

bool FaultInjector::heartbeat_muted(NodeId node, SimTime now) const {
  const NodeState& s = state(node);
  return s.down || now < s.mute_until;
}

double FaultInjector::pcie_slowdown(NodeId node, SimTime now) const {
  const NodeState& s = state(node);
  if (now >= s.stall_until) return 1.0;
  return s.stall_factor;
}

}  // namespace knots::fault
