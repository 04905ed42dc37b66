// A worker node: host CPU + one or more GPU devices (Dell R730 + P100 in the
// paper's testbed; the DL simulator instantiates 8 GPUs per node).
#pragma once

#include <memory>
#include <vector>

#include "core/types.hpp"
#include "gpu/gpu_device.hpp"

namespace knots::gpu {

struct NodeSpec {
  int gpus_per_node = 1;
  /// Host CPU floor. Defaults to 0 so cluster power matches the paper's
  /// NVML-measured *GPU* power; set to ~120 W to model the Xeon host too.
  double host_idle_watts = 0.0;
  /// Spot/preemptible capacity: the provider may reclaim this node at any
  /// time via a fault::kSpotReclaim event. Schedulers see the flag through
  /// GpuView.preemptible and trade its capacity for eviction risk.
  bool preemptible = false;
  /// Advance warning between the reclaim notice (the kSpotReclaim event)
  /// and the node actually going down (cloud spot instances give ~30–120 s).
  SimTime spot_notice = 0;
  GpuSpec gpu{};
};

class GpuNode {
 public:
  GpuNode(NodeId id, const NodeSpec& spec, std::int32_t first_gpu_id);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const NodeSpec& spec() const noexcept { return spec_; }

  [[nodiscard]] std::size_t gpu_count() const noexcept { return gpus_.size(); }
  [[nodiscard]] GpuDevice& gpu(std::size_t i) { return *gpus_[i]; }
  [[nodiscard]] const GpuDevice& gpu(std::size_t i) const { return *gpus_[i]; }

  /// Node power = host floor + sum of GPU draws; 0 while offline.
  [[nodiscard]] double power_watts() const;

  /// False while the node is crashed (knots::fault NodeCrash): it draws no
  /// power, reports no telemetry, and hosts no pods until recovery.
  [[nodiscard]] bool online() const noexcept { return online_; }
  void set_online(bool online) noexcept { online_ = online; }

  /// Mean SM utilization across this node's GPUs, in [0,1].
  [[nodiscard]] double mean_sm_util() const;

  /// Total free (unprovisioned) device memory across GPUs.
  [[nodiscard]] double free_provision_mb() const;

 private:
  NodeId id_;
  NodeSpec spec_;
  std::vector<std::unique_ptr<GpuDevice>> gpus_;
  bool online_ = true;
};

}  // namespace knots::gpu
