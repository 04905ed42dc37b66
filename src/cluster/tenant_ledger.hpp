// Per-tenant accounting and quota enforcement.
//
// Every pod carries a tenant id (0 = the default single tenant). The ledger
// charges *provisioned* device memory at placement and releases it at every
// detach-terminal transition (complete, crash, eviction), and accrues
// GPU-seconds while pods run. Quotas cap either axis; admission is checked
// centrally in Cluster::place(), so "no tenant ever exceeds its quota" holds
// by construction regardless of which scheduler asked.
//
// Golden preservation: with no quotas configured and every pod on tenant 0,
// the ledger never tracks anything — reports carry no tenant rows and digests
// are bit-identical to pre-ledger runs.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"

namespace knots::cluster {

/// One tenant's caps. A cap of 0 means unlimited on that axis.
struct TenantQuotaSpec {
  int tenant = 0;
  double provision_cap_mb = 0.0;   ///< Max simultaneous provisioned MB.
  double gpu_seconds_cap = 0.0;    ///< Lifetime GPU-seconds budget.
  friend bool operator==(const TenantQuotaSpec&,
                         const TenantQuotaSpec&) = default;
};

/// Accounting snapshot for one tenant (reported and digest-mixed).
struct TenantRow {
  int tenant = 0;
  double provisioned_mb = 0.0;      ///< Currently charged provision.
  double peak_provisioned_mb = 0.0; ///< High-water mark over the run.
  double gpu_seconds = 0.0;         ///< Accrued pod-runtime on devices.
  std::int64_t placements = 0;      ///< Successful quota-admitted placements.
  std::int64_t rejections = 0;      ///< Admissions refused by quota.
  TenantQuotaSpec quota{};          ///< Caps in force (0 = unlimited).
  friend bool operator==(const TenantRow&, const TenantRow&) = default;
};

class TenantLedger {
 public:
  /// Installs a quota; any configured quota switches the ledger to
  /// enforcing, which also turns on tracking for tenant 0.
  void set_quota(const TenantQuotaSpec& quota);

  /// True once any quota is configured.
  [[nodiscard]] bool enforcing() const noexcept { return enforcing_; }

  /// True when this tenant's activity should be accounted (and eventually
  /// reported). Tenant 0 with no quotas anywhere stays invisible so default
  /// runs keep their goldens.
  [[nodiscard]] bool tracks(int tenant) const noexcept {
    return enforcing_ || tenant != 0;
  }

  /// Would an extra `mb` of provision for `tenant` stay within its caps?
  /// Always true for tenants without quotas.
  [[nodiscard]] bool admits(int tenant, double mb) const;

  /// Records a quota refusal (pod stays pending and may retry later).
  void note_rejection(int tenant);

  /// Charges `mb` of provision to `tenant` on behalf of `pod`. The per-pod
  /// amount is remembered internally because Pod::crash()/evict() zero the
  /// pod's own provisioned_mb before the ledger hears about it.
  void charge(int tenant, PodId pod, double mb);

  /// Adjusts an existing pod's charge to `mb` (container resize).
  void recharge(PodId pod, double mb);

  /// Releases whatever `pod` is currently charged; idempotent.
  void release(PodId pod);

  /// Accrues device runtime for a tracked tenant.
  void accrue_gpu_seconds(int tenant, double seconds);

  /// Current charge held against a pod (0 when unknown).
  [[nodiscard]] double charged_mb(PodId pod) const;

  /// All tracked tenants' rows, ascending tenant id (deterministic).
  [[nodiscard]] std::vector<TenantRow> rows() const;

  /// Calls `f(row)` for every tracked tenant's row in rows() order, without
  /// copying them.
  template <class F>
  void for_each_row(F&& f) const {
    for (const auto& [tenant, r] : tenants_) f(r);
  }

  [[nodiscard]] bool empty() const noexcept { return tenants_.empty(); }

 private:
  struct PodCharge {
    int tenant = 0;
    double mb = 0.0;
  };

  TenantRow& row(int tenant);

  bool enforcing_ = false;
  std::map<int, TenantRow> tenants_;
  std::unordered_map<PodId, PodCharge> pod_charges_;
};

}  // namespace knots::cluster
