// Physical-consistency auditor for the simulated cluster.
//
// Invoked by the Cluster at the end of every scheduling tick (observer
// hook), it asserts the invariants the paper's real testbed gets for free
// from hardware:
//
//   * per-GPU memory usage never exceeds physical capacity, and provisioned
//     claims stay under the configured overcommit ceiling (capacity for the
//     utilization-aware CBP/PP/Uniform policies; unchecked for the blindly
//     overcommitting Res-Ag baseline);
//   * delivered SM utilization lies in [0, 1] and device power stays inside
//     the P100 p-state envelope [deep-sleep, TDP];
//   * pods only take the transitions documented in pod.hpp
//     (Pending → Starting → Running → Completed, with the
//     Crashed → Pending and Evicted → Pending relaunch cycles);
//   * simulated time is strictly monotone across ticks;
//   * pods are conserved: pending + starting + running + completed + crashed
//     + evicted always equals the number submitted, and the cluster's
//     completion counter matches the number of terminal pods;
//   * no pod is resident on a node the fault layer reports as down — a dead
//     kubelet hosts nothing (the eviction path must have drained it);
//   * on power-capped configurations, instantaneous cluster draw stays under
//     the cap at every rest state;
//   * on multi-tenant runs, the tenant ledger matches per-tenant provisioned
//     memory recomputed from device residents, and no tenant exceeds its
//     provision quota.
//
// Violations are collected into a structured report; with `fatal` set (the
// default in debug builds) the first violation aborts via KNOTS_CHECK so the
// offending tick is caught in a debugger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/observer.hpp"
#include "cluster/pod.hpp"
#include "core/types.hpp"
#include "verify/state_scan.hpp"

namespace knots::verify {

#ifdef NDEBUG
inline constexpr bool kFatalByDefault = false;
#else
inline constexpr bool kFatalByDefault = true;
#endif

struct InvariantOptions {
  /// Provisioned-memory ceiling as a multiple of device capacity; values
  /// <= 0 disable the check (schedulers that overcommit by design).
  double provision_ceiling_ratio = 0.0;
  /// Abort via KNOTS_CHECK on the first violation instead of collecting.
  bool fatal = kFatalByDefault;
  /// Cap on stored violation records (the count keeps incrementing).
  std::size_t max_recorded = 64;
};

/// One detected invariant breach.
struct Violation {
  std::string category;  ///< Stable machine-readable kind, e.g. "gpu-memory".
  std::string message;   ///< Human-readable description with operands.
  SimTime time = 0;      ///< Simulated time of the offending tick.
};

class InvariantChecker final : public cluster::ClusterObserver {
 public:
  explicit InvariantChecker(InvariantOptions options = {});

  void on_tick_end(const cluster::Cluster& cluster) override;

  /// Number of tick-level audits performed.
  [[nodiscard]] std::uint64_t checks_run() const noexcept { return checks_; }
  /// Total violations detected (may exceed violations().size()).
  [[nodiscard]] std::uint64_t violation_count() const noexcept {
    return violation_count_;
  }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] bool ok() const noexcept { return violation_count_ == 0; }
  [[nodiscard]] const InvariantOptions& options() const noexcept {
    return options_;
  }

 private:
  void check_time(const cluster::Cluster& cluster);
  void check_devices(const cluster::Cluster& cluster);
  void check_pods(const cluster::Cluster& cluster);
  /// Cluster draw stays under the configured rack cap (skipped when 0).
  void check_power_cap(const cluster::Cluster& cluster);
  /// Tenant ledger agrees with ground truth: per-tenant provisioned MB
  /// recomputed from device residents matches the ledger, and no tenant
  /// sits above its provision quota (skipped on single-tenant runs).
  void check_tenants(const cluster::Cluster& cluster);
  void report(const cluster::Cluster& cluster, std::string category,
              std::string message);

  void audit_pod(const cluster::Cluster& cluster, std::size_t index,
                 std::uint8_t packed_state);

  InvariantOptions options_;
  SimTime last_tick_ = -1;
  /// Previous audit's packed states (mirror of Cluster::pod_state_table()).
  /// Diffing against the cluster's table finds the pods worth a full
  /// dereference; words of unchanged frozen-state pods skip the audit
  /// entirely (scan_pod_states).
  std::vector<std::uint8_t> last_states_;
  std::vector<PodStateHit> hits_scratch_;  ///< Reused across per-tick scans.
  std::vector<bool> in_pending_scratch_;  ///< Reused across per-tick audits.
  /// One tenant's resident provision, summed in device then resident order.
  struct TenantSum {
    int tenant = 0;
    double mb = 0.0;
    bool has_row = false;  ///< Matched by a ledger row this audit.
  };
  std::vector<TenantSum> tenant_sums_;  ///< Reused across per-tick audits.
  std::vector<Violation> violations_;
  std::uint64_t checks_ = 0;
  std::uint64_t violation_count_ = 0;
};

}  // namespace knots::verify
