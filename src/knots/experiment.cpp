#include "knots/experiment.hpp"

#include <memory>

#include "cluster/pod.hpp"
#include "core/check.hpp"
#include "core/thread_pool.hpp"
#include "gpu/device_model.hpp"
#include "knots/kube_knots.hpp"
#include "sim/event_queue.hpp"
#include "verify/invariant_checker.hpp"
#include "verify/run_digest.hpp"
#include "workload/app_mix.hpp"
#include "workload/load_generator.hpp"

namespace knots {

ExperimentReport build_report(const cluster::Cluster& cl,
                              std::string scheduler_name, int mix_id) {
  const auto& m = cl.metrics();
  ExperimentReport r;
  r.scheduler = std::move(scheduler_name);
  r.mix_id = mix_id;
  // One shared sort per sample set instead of one copy+sort per percentile.
  constexpr double kUtilPs[] = {50, 90, 99, 100};
  for (std::size_t g = 0; g < m.gpu_count(); ++g) {
    const auto ps = m.gpu_util_percentiles(g, kUtilPs);
    r.per_gpu.push_back(UtilPercentiles{ps[0], ps[1], ps[2], ps[3]});
    r.per_gpu_cov.push_back(m.gpu_util_cov(g));
  }
  const auto cps = m.cluster_util_percentiles(kUtilPs);
  r.cluster_wide = UtilPercentiles{cps[0], cps[1], cps[2], cps[3]};

  r.queries = m.query_count();
  r.qos_violations = m.violation_count();
  r.violations_per_kilo = m.qos_violations_per_kilo();
  r.mean_power_watts = m.mean_power_watts();
  r.energy_joules = m.energy_joules();
  r.crashes = m.crash_count();
  const auto& fs = cl.fault_stats();
  r.pods_evicted = fs.pods_evicted;
  r.node_crashes = fs.node_crashes;
  r.node_recoveries = fs.node_recoveries;
  r.ecc_degrades = fs.ecc_degrades;
  r.heartbeat_gaps = fs.heartbeat_gaps;
  r.pcie_stalls = fs.pcie_stalls;
  r.stale_transitions = fs.stale_transitions;
  if (const auto* fabric = cl.fabric()) {
    const auto& ns = fabric->stats();
    r.flows_started = ns.flows_started;
    r.flows_finished = ns.flows_finished;
    r.flows_contended = ns.flows_contended;
    r.link_events = ns.link_events;
    r.mb_transferred = ns.mb_transferred;
  }
  r.mean_jct_s = m.mean_batch_jct_seconds();
  constexpr double kTailPs[] = {50, 99};
  const auto jct = m.batch_jct_percentiles(kTailPs);
  r.median_jct_s = jct[0];
  r.p99_jct_s = jct[1];
  const auto lc = m.query_latency_percentiles(kTailPs);
  r.lc_p50_ms = lc[0];
  r.lc_p99_ms = lc[1];
  r.tenants = cl.tenant_ledger().rows();
  r.pods_total = cl.pod_count();
  r.pods_completed = cl.completed_count();
  r.ticks = cl.tick_count();
  r.events = cl.events_processed();
  return r;
}

verify::InvariantOptions invariant_options(sched::SchedulerKind scheduler) {
  verify::InvariantOptions opts;
  opts.provision_ceiling_ratio =
      scheduler == sched::SchedulerKind::kResourceAgnostic ? 0.0 : 1.0;
  return opts;
}

void record_verification(ExperimentReport& report,
                         const verify::RunDigest& digest,
                         const verify::InvariantChecker& verifier) {
  report.run_digest = digest.value();
  report.invariant_checks = verifier.checks_run();
  report.invariant_violations = verifier.violation_count();
  for (const auto& v : verifier.violations()) {
    report.invariant_messages.push_back(v.category + ": " + v.message);
  }
}

double workload_footprint_bytes(const ExperimentConfig& config) {
  constexpr double kPodBytes = sizeof(workload::PodSpec) +
                               sizeof(cluster::Pod) +
                               sim::EventQueue::event_bytes();
  return workload::expected_pod_count(workload::app_mix(config.mix_id),
                                      config.workload) *
         kPodBytes;
}

std::vector<workload::PodSpec> generate_mix_workload(
    const ExperimentConfig& config) {
  workload::LoadGenConfig wl = config.workload;
  wl.device_memory_mb = config.cluster.node_spec.gpu.memory_mb;
  if (!config.cluster.node_classes.empty()) {
    // Heterogeneous fleet: cap generated requests at the *smallest* device
    // class so every pod can be placed anywhere (mirrors the homogeneous
    // whole-device semantics).
    double min_mb = 0.0;
    for (const auto& nc : config.cluster.node_classes) {
      const auto model = gpu::find_device_model(nc.device_model);
      KNOTS_CHECK_MSG(model.has_value(), "unknown device model");
      min_mb = min_mb == 0.0 ? model->gpu.memory_mb
                             : std::min(min_mb, model->gpu.memory_mb);
    }
    wl.device_memory_mb = min_mb;
  }
  return workload::generate_workload(workload::app_mix(config.mix_id), wl,
                                     Rng(config.seed));
}

std::size_t workload_pod_count(const ExperimentConfig& config) {
  return workload::generated_pod_count(workload::app_mix(config.mix_id),
                                       config.workload, Rng(config.seed));
}

ExperimentReport run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, RunObservability{});
}

ExperimentReport run_experiment(const ExperimentConfig& config,
                                const RunObservability& observability) {
  KubeKnots knots(config);
  if (observability.trace != nullptr) {
    knots.attach_tracer(observability.trace);
  }
  if (observability.metrics != nullptr) {
    knots.attach_metrics(observability.metrics);
  }
  knots.submit_mix_workload();
  return knots.run();
}

std::vector<SweepResult> run_sweep(const ExperimentConfig& base,
                                   const SweepGrid& grid,
                                   std::size_t threads) {
  // Enumerate the grid up front so slot i is a fixed coordinate: workers
  // fill disjoint slots and the output order never depends on timing.
  const std::vector<std::uint64_t> seeds =
      grid.seeds.empty() ? std::vector<std::uint64_t>{base.seed} : grid.seeds;
  std::vector<SweepResult> results;
  results.reserve(grid.size());
  for (const auto kind : grid.schedulers) {
    for (const auto seed : seeds) {
      for (const double load : grid.load_scales) {
        SweepResult r;
        r.scheduler = kind;
        r.seed = seed;
        r.load_scale = load;
        results.push_back(std::move(r));
      }
    }
  }
  ThreadPool pool(threads);
  pool.parallel_for(results.size(), [&](std::size_t i) {
    SweepResult& slot = results[i];
    ExperimentConfig cfg = base;
    cfg.scheduler = slot.scheduler;
    cfg.seed = slot.seed;
    cfg.workload.batch_rate_scale *= slot.load_scale;
    cfg.workload.lc_rate_scale *= slot.load_scale;
    slot.report = run_experiment(cfg);
  });
  return results;
}

}  // namespace knots
