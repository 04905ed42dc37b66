#include "gpu/gpu_device.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace knots::gpu {

GpuDevice::GpuDevice(GpuId id, GpuSpec spec) : id_(id), spec_(spec) {
  KNOTS_CHECK(spec_.memory_mb > 0);
}

std::size_t GpuDevice::slot_of(PodId pod) const noexcept {
  std::size_t i = 0;
  while (i < residents_.size() && residents_[i] != pod) ++i;
  return i;
}

bool GpuDevice::attach(PodId pod, double provisioned_mb) {
  KNOTS_CHECK(pod.valid());
  KNOTS_CHECK(provisioned_mb >= 0);
  const auto it = std::lower_bound(residents_.begin(), residents_.end(), pod);
  if (it != residents_.end() && *it == pod) return false;
  parked_ = false;
  const auto row = it - residents_.begin();
  residents_.insert(it, pod);
  usages_.insert(usages_.begin() + row, Usage{});
  provisioned_.insert(provisioned_.begin() + row, provisioned_mb);
  recompute_totals();
  return true;
}

void GpuDevice::detach(PodId pod) {
  const std::size_t i = slot_of(pod);
  if (i == residents_.size()) return;
  const auto row = static_cast<std::ptrdiff_t>(i);
  residents_.erase(residents_.begin() + row);
  usages_.erase(usages_.begin() + row);
  provisioned_.erase(provisioned_.begin() + row);
  recompute_totals();
}

bool GpuDevice::resize(PodId pod, double provisioned_mb) {
  const std::size_t i = slot_of(pod);
  if (i == residents_.size()) return false;
  if (provisioned_mb < usages_[i].memory_mb) return false;
  provisioned_[i] = provisioned_mb;
  recompute_totals();
  return true;
}

bool GpuDevice::set_usage(PodId pod, const Usage& usage) {
  const std::size_t i = slot_of(pod);
  KNOTS_CHECK_MSG(i < residents_.size(), "set_usage on non-resident pod");
  usages_[i] = usage;
  recompute_totals();
  // Space-shared memory: violation when *usage* exceeds the usable device
  // (physical capacity minus ECC-retired pages), regardless of what
  // allocations promised (overcommitting schedulers).
  return totals_.memory_used_mb <= effective_memory_mb();
}

void GpuDevice::retire_memory_mb(double mb) {
  KNOTS_CHECK(mb >= 0);
  ecc_retired_mb_ = std::min(ecc_retired_mb_ + mb, spec_.memory_mb - 1.0);
}

std::optional<double> GpuDevice::provisioned_mb(PodId pod) const {
  const std::size_t i = slot_of(pod);
  if (i == residents_.size()) return std::nullopt;
  return provisioned_[i];
}

std::vector<PodId> GpuDevice::resident_pods() const { return residents_; }

void GpuDevice::refresh_derived() const {
  double factor = std::max(1.0, totals_.sm_demand);
  if (totals_.active_contexts > 1) {
    // Context-switch tax: non-preemptive kernels + VIVT cache flushes make
    // time-multiplexing k compute-active contexts superlinearly expensive.
    factor *= 1.0 + spec_.context_switch_tax *
                        static_cast<double>(totals_.active_contexts - 1);
  }
  cached_slowdown_ = factor;
  cached_power_ = gpu_power_watts(spec_.power, totals_.sm_util,
                                  totals_.residents > 0, parked_);
  derived_dirty_ = false;
}

void GpuDevice::set_parked(bool parked) {
  if (parked) {
    KNOTS_CHECK_MSG(residents_.empty(), "cannot park an occupied GPU");
  }
  parked_ = parked;
  derived_dirty_ = true;
}

void GpuDevice::recompute_totals() noexcept {
  // Left folds in pod-id order: the same residents give the same totals to
  // the last bit whatever order they were attached in.
  GpuTotals t;
  for (std::size_t i = 0; i < residents_.size(); ++i) {
    const Usage& u = usages_[i];
    t.sm_demand += u.sm;
    t.memory_used_mb += u.memory_mb;
    t.tx_mbps += u.tx_mbps;
    t.rx_mbps += u.rx_mbps;
    t.memory_provisioned_mb += provisioned_[i];
    ++t.residents;
    if (u.sm > spec_.active_sm_threshold) ++t.active_contexts;
  }
  t.sm_util = std::min(1.0, t.sm_demand);
  t.tx_mbps = std::min(t.tx_mbps, spec_.pcie_mbps);
  t.rx_mbps = std::min(t.rx_mbps, spec_.pcie_mbps);
  totals_ = t;
  derived_dirty_ = true;
}

}  // namespace knots::gpu
