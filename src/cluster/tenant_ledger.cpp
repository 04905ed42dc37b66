#include "cluster/tenant_ledger.hpp"

#include <algorithm>

namespace knots::cluster {

void TenantLedger::set_quota(const TenantQuotaSpec& quota) {
  enforcing_ = true;
  row(quota.tenant).quota = quota;
}

bool TenantLedger::admits(int tenant, double mb) const {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return true;
  const TenantRow& r = it->second;
  if (r.quota.provision_cap_mb > 0.0 &&
      r.provisioned_mb + mb > r.quota.provision_cap_mb) {
    return false;
  }
  if (r.quota.gpu_seconds_cap > 0.0 &&
      r.gpu_seconds >= r.quota.gpu_seconds_cap) {
    return false;
  }
  return true;
}

void TenantLedger::note_rejection(int tenant) {
  if (!tracks(tenant)) return;
  ++row(tenant).rejections;
}

void TenantLedger::charge(int tenant, PodId pod, double mb) {
  if (!tracks(tenant)) return;
  TenantRow& r = row(tenant);
  r.provisioned_mb += mb;
  r.peak_provisioned_mb = std::max(r.peak_provisioned_mb, r.provisioned_mb);
  ++r.placements;
  pod_charges_[pod] = PodCharge{tenant, mb};
}

void TenantLedger::recharge(PodId pod, double mb) {
  const auto it = pod_charges_.find(pod);
  if (it == pod_charges_.end()) return;
  TenantRow& r = row(it->second.tenant);
  r.provisioned_mb += mb - it->second.mb;
  r.peak_provisioned_mb = std::max(r.peak_provisioned_mb, r.provisioned_mb);
  it->second.mb = mb;
}

void TenantLedger::release(PodId pod) {
  const auto it = pod_charges_.find(pod);
  if (it == pod_charges_.end()) return;
  row(it->second.tenant).provisioned_mb -= it->second.mb;
  pod_charges_.erase(it);
}

void TenantLedger::accrue_gpu_seconds(int tenant, double seconds) {
  if (!tracks(tenant)) return;
  row(tenant).gpu_seconds += seconds;
}

std::vector<TenantRow> TenantLedger::rows() const {
  std::vector<TenantRow> out;
  out.reserve(tenants_.size());
  for (const auto& [id, r] : tenants_) out.push_back(r);
  return out;
}

TenantRow& TenantLedger::row(int tenant) {
  TenantRow& r = tenants_[tenant];
  r.tenant = tenant;
  return r;
}

}  // namespace knots::cluster
