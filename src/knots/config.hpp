// Experiment configuration and the paper's testbed constants
// (Tables II & III).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "gpu/device_model.hpp"
#include "sched/params.hpp"
#include "sched/registry.hpp"
#include "workload/load_generator.hpp"

namespace knots {

/// Table II — per-node hardware of the testbed. The GPU identity and
/// capacity are sourced from the device-model registry (single source of
/// truth for per-model constants), not restated here.
struct HardwareConfig {
  std::string cpu = "Xeon E5-2670";
  int cores = 12;
  int threads_per_core = 2;
  double clock_ghz = 2.3;
  int dram_gb = 192;
  std::string gpu = gpu::default_device_model().display;
  double gpu_memory_mb = gpu::default_device_model().gpu.memory_mb;
};

/// Table III — software stack of the testbed (documented for fidelity; the
/// simulation reproduces the behaviours, not the binaries).
struct SoftwareConfig {
  std::string kubernetes = "1.9.3";
  std::string nvidia_docker = "2.0";
  std::string pynvml = "7.352.0";
  std::string influxdb = "1.4.2";
  std::string cuda = "8.0.61";
  std::string tensorflow = "1.8";
};

HardwareConfig hardware_config();
SoftwareConfig software_config();

/// One full cluster experiment: mix × scheduler × cluster/workload knobs.
struct ExperimentConfig {
  int mix_id = 1;
  sched::SchedulerKind scheduler = sched::SchedulerKind::kPeakPrediction;
  cluster::ClusterConfig cluster{};
  workload::LoadGenConfig workload{};
  sched::SchedParams sched_params{};
  std::uint64_t seed = 42;
  /// Deterministic fault schedule replayed on the simulation engine; empty
  /// (the default) reproduces the fault-free runs bit-identically.
  fault::FaultPlan faults{};

  class Builder;
};

/// Fluent construction of the common experiment knobs on top of the paper
/// defaults:
///
///   auto cfg = ExperimentConfig::Builder{}
///                  .scheduler(sched::SchedulerKind::kCbp)
///                  .nodes(4).duration(30 * kSec).seed(7)
///                  .faults(fault::FaultPlan{}.node_crash(NodeId{1}, 5 * kSec))
///                  .build();
class ExperimentConfig::Builder {
 public:
  /// Starts from the paper defaults (default_experiment(1, PP)).
  Builder();

  Builder& mix(int mix_id);
  Builder& scheduler(sched::SchedulerKind kind);
  Builder& nodes(int nodes);
  Builder& gpus_per_node(int gpus);
  /// Swaps every node's GPU for the named device model (registry name,
  /// e.g. "v100-32g"). Aborts on an unknown model. The default keeps the
  /// paper's P100 substrate bit-identically.
  Builder& device_model(std::string_view name);
  /// Appends one heterogeneous node class (device model × count). The
  /// first call switches the cluster from homogeneous to class-driven
  /// sizing; counts add up to the final node count.
  Builder& node_class(cluster::NodeClass node_class);
  /// Registers a per-tenant quota (activates ledger enforcement).
  Builder& tenant_quota(cluster::TenantQuotaSpec quota);
  /// Round-robin tenant labels applied to the generated workload.
  Builder& workload_tenants(std::vector<int> tenants);
  /// Cluster-wide power-cap assertion checked by the invariant layer
  /// (<= 0 disables; never feeds back into scheduling).
  Builder& power_cap_watts(double watts);
  /// Compatibility shim: the tick is single-threaded, so the only accepted
  /// value is 1, which changes nothing. Any other value aborts.
  Builder& lanes(int lanes);
  /// Arrival-window length of the generated workload.
  Builder& duration(SimTime duration);
  Builder& seed(std::uint64_t seed);
  /// Multiplies both the batch and latency-critical arrival rates.
  Builder& load_scale(double scale);
  Builder& faults(fault::FaultPlan plan);
  /// Attaches an explicit fabric plan (knots::net). An empty plan (the
  /// default) keeps the cluster fabric-free.
  Builder& fabric(net::FabricPlan plan);
  /// Derives the default two-tier fabric from the final node count at
  /// build() time — safe to call before or after nodes().
  Builder& auto_fabric();
  /// Container image size charged as a registry pull on first placement per
  /// node when a fabric is active (<= 0 disables the charge).
  Builder& image_mb(double mb);

  [[nodiscard]] ExperimentConfig build() const;

 private:
  ExperimentConfig cfg_;
  bool auto_fabric_ = false;
};

/// Paper-default experiment: ten single-P100 worker nodes, 600 s arrival
/// window (a compressed slice of the 12 h trace replay).
ExperimentConfig default_experiment(int mix_id, sched::SchedulerKind kind);

}  // namespace knots
