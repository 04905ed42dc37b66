// GPU device model: time-shared SMs, space-shared memory, PCIe channels.
//
// Mirrors the sharing semantics Kube-Knots enables through the modified
// Nvidia k8s-device-plugin (§IV-B): multiple pods may reside on one GPU; SM
// cycles are time-shared (aggregate demand above 100 % slows every resident
// proportionally), memory is space-shared (aggregate *usage* above physical
// capacity is a capacity violation that crashes the most-recently-grown pod).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/types.hpp"
#include "gpu/power_model.hpp"

namespace knots::gpu {

/// Instantaneous resource demand of one resident pod.
struct Usage {
  double sm = 0.0;         ///< SM demand in [0, 1] of the whole device.
  double memory_mb = 0.0;  ///< Resident device memory.
  double tx_mbps = 0.0;    ///< Host-to-device PCIe traffic.
  double rx_mbps = 0.0;    ///< Device-to-host PCIe traffic.
};

struct GpuSpec {
  double memory_mb = 16384.0;     ///< P100 16 GB.
  double pcie_mbps = 12000.0;     ///< Effective PCIe gen3 x16 per direction.
  double nvlink_mbps = 40000.0;   ///< P100 NVLink aggregate; the default
                                  ///< intra-node link bandwidth when a
                                  ///< net::FabricPlan is auto-derived.
  /// Multiplicative progress tax per extra *compute-active* co-resident
  /// context. GPUs are non-preemptive and VIVT (§I): time-multiplexing k
  /// contexts flushes caches and serializes long kernels, so co-location is
  /// far costlier than the raw SM-demand sum suggests.
  double context_switch_tax = 0.08;
  /// SM demand above which a resident counts as compute-active.
  double active_sm_threshold = 0.05;
  /// Relative compute throughput vs the P100 baseline: how much profile
  /// runtime (or DL step work) this device retires per simulated second.
  /// 1.0 is the P100; the DeviceModel registry calibrates newer generations
  /// with power-of-two factors so factor-scaled runs stay IEEE-exact.
  double compute_factor = 1.0;
  GpuPowerSpec power{};
};

/// Aggregated instantaneous state of the device.
struct GpuTotals {
  double sm_demand = 0.0;      ///< Sum of resident SM demands (can be > 1).
  double sm_util = 0.0;        ///< Delivered utilization, clamped to [0,1].
  int active_contexts = 0;     ///< Residents above the compute threshold.
  double memory_used_mb = 0.0; ///< Sum of resident usage.
  double memory_provisioned_mb = 0.0;  ///< Sum of container allocations.
  double tx_mbps = 0.0;
  double rx_mbps = 0.0;
  int residents = 0;
};

class GpuDevice {
 public:
  explicit GpuDevice(GpuId id, GpuSpec spec = {});

  [[nodiscard]] GpuId id() const noexcept { return id_; }
  [[nodiscard]] const GpuSpec& spec() const noexcept { return spec_; }

  /// Admits a pod with a container allocation of `provisioned_mb`.
  /// Allocations are *claims*, not physical reservations: a GPU-agnostic
  /// scheduler may overcommit them past capacity (that is the fragmentation
  /// story of §II); only duplicate attaches fail. Utilization-aware
  /// schedulers check `provision_fits` themselves before placing.
  [[nodiscard]] bool attach(PodId pod, double provisioned_mb);

  /// True when an extra allocation of `mb` keeps total claims within the
  /// usable device (what CBP/PP check before placement).
  [[nodiscard]] bool provision_fits(double mb) const noexcept {
    return totals_.memory_provisioned_mb + mb <= effective_memory_mb();
  }

  /// Removes a pod; its usage and allocation are released.
  void detach(PodId pod);

  /// Changes a pod's container allocation (docker resize); fails only when
  /// shrinking below the pod's current usage (a crash, not a resize).
  [[nodiscard]] bool resize(PodId pod, double provisioned_mb);

  /// Updates the pod's instantaneous usage. Returns false when this update
  /// pushes aggregate memory usage past physical capacity (capacity
  /// violation — the caller crashes the offending pod).
  [[nodiscard]] bool set_usage(PodId pod, const Usage& usage);

  [[nodiscard]] bool resident(PodId pod) const noexcept {
    return slot_of(pod) < residents_.size();
  }
  [[nodiscard]] std::optional<double> provisioned_mb(PodId pod) const;
  [[nodiscard]] std::vector<PodId> resident_pods() const;
  /// Resident pods in ascending id order, without the copy resident_pods()
  /// makes: the id column of the resident table, for the per-tick harvest
  /// and audit loops.
  [[nodiscard]] const std::vector<PodId>& residents() const noexcept {
    return residents_;
  }
  /// Each resident's container allocation in MB, index-parallel to
  /// residents(): the audits sum it in place instead of looking up
  /// provisioned_mb() per pod.
  [[nodiscard]] const std::vector<double>& allocations() const noexcept {
    return provisioned_;
  }

  [[nodiscard]] GpuTotals totals() const noexcept { return totals_; }
  [[nodiscard]] double free_provision_mb() const noexcept {
    return effective_memory_mb() - totals_.memory_provisioned_mb;
  }

  // -- ECC error state (knots::fault GpuEccDegrade) --
  /// Usable capacity: physical memory minus pages retired by sticky ECC
  /// errors. Capacity violations and provisioning both bound against this.
  [[nodiscard]] double effective_memory_mb() const noexcept {
    return spec_.memory_mb - ecc_retired_mb_;
  }
  /// Retires `mb` of device memory (sticky double-bit errors; cumulative,
  /// never restored). Capped so at least 1 MB stays usable.
  void retire_memory_mb(double mb);

  /// Progress slowdown from SM time-sharing: max(1, aggregate demand) plus a
  /// context-switch tax that grows with the number of co-residents. Pure in
  /// the current totals, so the value is cached until the next usage change
  /// (the tick hot path asks several times per device per tick).
  [[nodiscard]] double slowdown() const noexcept {
    if (derived_dirty_) refresh_derived();
    return cached_slowdown_;
  }

  /// True when the orchestrator parked this device (deep sleep p-state).
  [[nodiscard]] bool parked() const noexcept { return parked_; }
  /// Parking requires an empty device.
  void set_parked(bool parked);

  /// Instantaneous draw; cached like slowdown() (pure in totals + parked).
  [[nodiscard]] double power_watts() const {
    if (derived_dirty_) refresh_derived();
    return cached_power_;
  }

 private:
  /// Row of `pod` in the resident table; residents_.size() when absent.
  [[nodiscard]] std::size_t slot_of(PodId pod) const noexcept;
  void recompute_totals() noexcept;
  void refresh_derived() const;

  GpuId id_;
  GpuSpec spec_;
  // The resident table: one row per pod in ascending id order, kept as
  // three parallel columns. A device hosts a handful of pods, so a lookup
  // scans the id column, and recompute_totals sums in id order, which
  // fixes the totals' rounding independently of attach order.
  std::vector<PodId> residents_;
  std::vector<Usage> usages_;
  std::vector<double> provisioned_;
  GpuTotals totals_{};
  bool parked_ = false;
  double ecc_retired_mb_ = 0.0;
  mutable bool derived_dirty_ = true;
  mutable double cached_slowdown_ = 1.0;
  mutable double cached_power_ = 0.0;
};

}  // namespace knots::gpu
