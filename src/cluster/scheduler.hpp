// Scheduler plug-in interface (event-driven since PR 3).
//
// An engine invokes the policy once per scheduling tick through
// on_schedule(), handing it a SchedulingContext — a curated view of
// everything a policy may read (pending queue, telemetry aggregator, tenant
// quotas) plus the Cluster pointer it mutates through place / resize_pod /
// park and reads image profiles through. The DL engine drives the same
// interface with the pod-specific members null and its own view in
// `extension` (see dlsim/). Fault transitions additionally
// fire the optional on_node_down / on_node_up / on_telemetry_stale hooks,
// so policies can react at the event edge instead of re-deriving health
// from telemetry every round.
#pragma once

#include <deque>
#include <string>

#include "core/types.hpp"

namespace knots::telemetry {
class UtilizationAggregator;
}
namespace knots::obs {
class TraceSink;
}

namespace knots::cluster {

class Cluster;
class TenantLedger;

/// Engine-specific payload a substrate may hang off the SchedulingContext.
/// Pod scheduling leaves it null; the DL engine passes its DlSchedView so
/// DL policies can recover their richer view from the shared hook
/// signature. Policies downcast to the concrete type they were built for.
struct ContextExtension {
  virtual ~ContextExtension() = default;
};

/// Everything a scheduling policy may consult in one round. Views are
/// borrowed from the owning engine and valid only for the duration of the
/// call. The pod-cluster members are pointers because more than one engine
/// now drives this interface: a Cluster tick fills them all in, while the
/// DL engine runs with them null and hands policies its own view through
/// `extension`.
struct SchedulingContext {
  Cluster* cluster = nullptr;
  SimTime now = 0;
  const std::deque<PodId>* pending = nullptr;
  const telemetry::UtilizationAggregator* aggregator = nullptr;
  /// Optional tracer for kDecision rationale events; nullptr when the run
  /// is untraced. Policies must behave identically either way.
  obs::TraceSink* trace = nullptr;
  /// Per-tenant quota accounting, non-null only when the cluster enforces
  /// quotas. Policies may consult it to skip pods whose tenant is over
  /// budget (the cluster re-checks admission in place() regardless, so this
  /// is an efficiency hint, not the enforcement point).
  const TenantLedger* tenants = nullptr;
  /// Substrate-specific view (null for pod-cluster rounds).
  ContextExtension* extension = nullptr;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// One scheduling round. Called after pod progress/telemetry updates.
  virtual void on_schedule(SchedulingContext& ctx) = 0;

  // -- Optional fault hooks (default: no reaction) --
  /// A worker node died; its pods are already evicted back to pending.
  virtual void on_node_down(SchedulingContext& /*ctx*/, NodeId /*node*/) {}
  /// A crashed node recovered and may host pods again.
  virtual void on_node_up(SchedulingContext& /*ctx*/, NodeId /*node*/) {}
  /// A GPU's telemetry series crossed the staleness horizon (K missed
  /// heartbeats); its aggregator view is last-known-good, not current.
  virtual void on_telemetry_stale(SchedulingContext& /*ctx*/,
                                  GpuId /*gpu*/) {}

  /// Policies that consolidate may let the cluster park long-idle GPUs into
  /// deep sleep (p-state 12).
  [[nodiscard]] virtual bool parks_idle_gpus() const { return false; }
};

}  // namespace knots::cluster
