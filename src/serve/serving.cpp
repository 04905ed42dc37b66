#include "serve/serving.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/check.hpp"
#include "serve/engine.hpp"
#include "sim/event_queue.hpp"
#include "verify/invariant_checker.hpp"
#include "verify/run_digest.hpp"
#include "workload/app_mix.hpp"

namespace knots::serve {

std::string_view to_string(ArrivalShape s) noexcept {
  switch (s) {
    case ArrivalShape::kPoisson:
      return "poisson";
    case ArrivalShape::kDiurnal:
      return "diurnal";
    case ArrivalShape::kFlashCrowd:
      return "flash-crowd";
  }
  return "unknown";
}

ServingConfig default_serving(double total_qps, ArrivalShape shape,
                              sched::SchedulerKind scheduler) {
  ServingConfig cfg;
  cfg.experiment = ExperimentConfig::Builder{}.scheduler(scheduler).build();
  cfg.arrivals.shape = shape;
  // Three representative DjiNN&Tonic services at a 50/30/20 traffic split:
  // imc (vision CNN), face (DNN frontend), key (speech keyword spotting).
  ServiceConfig imc;
  imc.service = workload::Service::kImc;
  imc.qps = total_qps * 0.5;
  ServiceConfig face;
  face.service = workload::Service::kFace;
  face.qps = total_qps * 0.3;
  ServiceConfig key;
  key.service = workload::Service::kKey;
  key.qps = total_qps * 0.2;
  cfg.services = {imc, face, key};
  return cfg;
}

double serving_footprint_bytes(const ServingConfig& config) {
  const auto& a = config.arrivals;
  double qps = 0.0;
  for (const auto& svc : config.services) qps += svc.qps;
  double peak = 1.0;  // The shape's peak rate over its mean rate.
  if (a.shape == ArrivalShape::kDiurnal) peak += a.diurnal_amplitude;
  if (a.shape == ArrivalShape::kFlashCrowd) {
    peak = std::max(1.0, a.spike_multiplier);
  }
  const double requests = qps * peak * static_cast<double>(config.window) /
                          static_cast<double>(kSec);
  constexpr double kRequestBytes =
      sizeof(Request) + sim::EventQueue::event_bytes();
  double bytes = requests * kRequestBytes;
  if (config.background_batch) {
    ExperimentConfig batch = config.experiment;
    batch.workload.duration = config.window;
    bytes += workload_footprint_bytes(batch);
  }
  return bytes;
}

namespace {

ServingReport run_serving_impl(const ServingConfig& config,
                               const RunObservability* observability) {
  const ExperimentConfig& exp = config.experiment;
  auto scheduler = sched::make_scheduler(exp.scheduler, exp.sched_params);

  cluster::ClusterConfig cluster_cfg = exp.cluster;
  cluster_cfg.seed = exp.seed;
  cluster::Cluster cluster(cluster_cfg, *scheduler);
  cluster.set_fault_plan(exp.faults);

  verify::InvariantChecker verifier(invariant_options(exp.scheduler));
  verify::RunDigest cluster_digest;
  cluster.add_observer(&verifier);
  cluster.add_observer(&cluster_digest);

  if (observability != nullptr) {
    cluster.set_trace_sink(observability->trace);
    cluster.set_metrics_registry(observability->metrics);
  }

  // Background batch pods: the harvestable substrate. The mix's own
  // latency-critical query pods are dropped — the request stream below *is*
  // the latency-critical load.
  std::vector<workload::PodSpec> pods;
  if (config.background_batch) {
    workload::LoadGenConfig wl = exp.workload;
    wl.duration = config.window;
    wl.device_memory_mb = exp.cluster.node_spec.gpu.memory_mb;
    auto mixed = workload::generate_workload(workload::app_mix(exp.mix_id),
                                             wl, Rng(exp.seed));
    for (auto& p : mixed) {
      if (p.klass == workload::PodClass::kBatch) pods.push_back(std::move(p));
    }
    for (std::size_t i = 0; i < pods.size(); ++i) {
      pods[i].id = PodId{static_cast<std::int32_t>(i)};
    }
  }
  cluster.load(std::move(pods));

  ServingEngine engine(cluster, config, Rng(exp.seed).fork(0x53525645));
  if (observability != nullptr) {
    engine.set_trace_sink(observability->trace);
    if (observability->metrics != nullptr) {
      engine.set_metrics_registry(observability->metrics);
    }
  }
  engine.prime();
  cluster.run();

  ServingReport report;
  report.experiment =
      build_report(cluster, scheduler->name(), exp.mix_id);
  record_verification(report.experiment, cluster_digest, verifier);
  engine.fill_report(report);
  return report;
}

}  // namespace

ServingReport run_serving(const ServingConfig& config) {
  return run_serving_impl(config, nullptr);
}

ServingReport run_serving(const ServingConfig& config,
                          const RunObservability& observability) {
  return run_serving_impl(config, &observability);
}

}  // namespace knots::serve
