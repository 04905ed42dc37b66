#include "knots/config.hpp"

#include <utility>

#include "core/check.hpp"
#include "gpu/device_model.hpp"

namespace knots {

HardwareConfig hardware_config() { return HardwareConfig{}; }
SoftwareConfig software_config() { return SoftwareConfig{}; }

ExperimentConfig default_experiment(int mix_id, sched::SchedulerKind kind) {
  ExperimentConfig cfg;
  cfg.mix_id = mix_id;
  cfg.scheduler = kind;
  cfg.cluster.nodes = 10;
  cfg.cluster.gpus_per_node = 1;
  cfg.cluster.seed = cfg.seed;
  cfg.workload.duration = 600 * kSec;
  cfg.workload.device_memory_mb = cfg.cluster.node_spec.gpu.memory_mb;
  return cfg;
}

ExperimentConfig::Builder::Builder()
    : cfg_(default_experiment(1, sched::SchedulerKind::kPeakPrediction)) {}

ExperimentConfig::Builder& ExperimentConfig::Builder::mix(int mix_id) {
  cfg_.mix_id = mix_id;
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::scheduler(
    sched::SchedulerKind kind) {
  cfg_.scheduler = kind;
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::nodes(int nodes) {
  cfg_.cluster.nodes = nodes;
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::gpus_per_node(int gpus) {
  cfg_.cluster.gpus_per_node = gpus;
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::device_model(
    std::string_view name) {
  const auto model = gpu::find_device_model(name);
  KNOTS_CHECK_MSG(model.has_value(), "unknown device model");
  cfg_.cluster.node_spec.gpu = model->gpu;
  cfg_.workload.device_memory_mb = model->gpu.memory_mb;
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::node_class(
    cluster::NodeClass node_class) {
  cfg_.cluster.node_classes.push_back(std::move(node_class));
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::tenant_quota(
    cluster::TenantQuotaSpec quota) {
  cfg_.cluster.tenant_quotas.push_back(quota);
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::workload_tenants(
    std::vector<int> tenants) {
  cfg_.workload.tenants = std::move(tenants);
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::power_cap_watts(
    double watts) {
  cfg_.cluster.power_cap_watts = watts;
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::lanes(int lanes) {
  KNOTS_CHECK_MSG(lanes == 1, "the tick is single-threaded: lanes must be 1");
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::duration(
    SimTime duration) {
  cfg_.workload.duration = duration;
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::seed(std::uint64_t seed) {
  cfg_.seed = seed;
  cfg_.cluster.seed = seed;
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::load_scale(double scale) {
  cfg_.workload.batch_rate_scale *= scale;
  cfg_.workload.lc_rate_scale *= scale;
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::faults(
    fault::FaultPlan plan) {
  cfg_.faults = std::move(plan);
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::fabric(
    net::FabricPlan plan) {
  cfg_.cluster.fabric = std::move(plan);
  auto_fabric_ = false;
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::auto_fabric() {
  auto_fabric_ = true;
  return *this;
}

ExperimentConfig::Builder& ExperimentConfig::Builder::image_mb(double mb) {
  cfg_.cluster.image_mb = mb;
  return *this;
}

ExperimentConfig ExperimentConfig::Builder::build() const {
  ExperimentConfig cfg = cfg_;
  if (!cfg.cluster.node_classes.empty()) {
    // Node classes drive the roster; keep the scalar count consistent for
    // everything that reads it before the Cluster is constructed.
    int node_count = 0;
    for (const auto& nc : cfg.cluster.node_classes) node_count += nc.count;
    cfg.cluster.nodes = node_count;
  }
  if (auto_fabric_) {
    // Intra-node bandwidth tracks the device model instead of restating the
    // NVLink constant.
    net::AutoFabricOptions options;
    options.intra_node_mb_per_s = cfg.cluster.node_spec.gpu.nvlink_mbps;
    cfg.cluster.fabric = net::FabricPlan::auto_derive(cfg.cluster.nodes,
                                                      options);
  }
  return cfg;
}

}  // namespace knots
