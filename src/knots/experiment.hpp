// Experiment runner: executes one configuration and distils the metrics
// every figure reads into a flat report.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "knots/config.hpp"

namespace knots::obs {
class TraceSink;
class MetricsRegistry;
}  // namespace knots::obs

namespace knots::verify {
class InvariantChecker;
class RunDigest;
struct InvariantOptions;
}  // namespace knots::verify

namespace knots {

/// Utilization percentiles in percent, in Fig 6/8/9 order.
struct UtilPercentiles {
  double p50 = 0, p90 = 0, p99 = 0, max = 0;
};

struct ExperimentReport {
  std::string scheduler;
  int mix_id = 0;

  std::vector<UtilPercentiles> per_gpu;  ///< Fig 6 / Fig 8 bars.
  UtilPercentiles cluster_wide;          ///< Fig 9 bars.
  std::vector<double> per_gpu_cov;       ///< Fig 7 (sorted ascending).

  std::size_t queries = 0;
  std::size_t qos_violations = 0;
  double violations_per_kilo = 0;        ///< Fig 10a bars.

  double mean_power_watts = 0;           ///< Fig 11a (normalize externally).
  double energy_joules = 0;
  std::size_t crashes = 0;

  // -- Fault layer (knots::fault) --
  std::uint64_t pods_evicted = 0;     ///< Node-death evictions.
  std::uint64_t node_crashes = 0;
  std::uint64_t node_recoveries = 0;
  std::uint64_t ecc_degrades = 0;
  std::uint64_t heartbeat_gaps = 0;
  std::uint64_t pcie_stalls = 0;
  std::uint64_t stale_transitions = 0;  ///< Fresh → stale telemetry edges.

  // -- Fabric layer (knots::net); all zero on a fabric-free run --
  std::uint64_t flows_started = 0;    ///< Transfers begun on the fabric.
  std::uint64_t flows_finished = 0;   ///< Transfers fully delivered.
  std::uint64_t flows_contended = 0;  ///< Finished below solo fair share.
  std::uint64_t link_events = 0;      ///< Link down/degrade/restore edges.
  double mb_transferred = 0;          ///< Total delivered payload (MB).

  // -- Multi-tenant accounting (knots::cluster::TenantLedger); empty on
  //    single-tenant, quota-free runs --
  std::vector<cluster::TenantRow> tenants;

  double mean_jct_s = 0, median_jct_s = 0, p99_jct_s = 0;
  double lc_p50_ms = 0, lc_p99_ms = 0;
  std::size_t pods_total = 0, pods_completed = 0;

  std::uint64_t ticks = 0;   ///< Scheduling quanta executed (perf harness).
  std::uint64_t events = 0;  ///< Engine events dispatched (perf harness).

  // -- Verification layer (knots::verify) --
  /// Order-sensitive FNV-1a hash over every scheduling decision, crash and
  /// completion. Identical config + seed must yield identical digests.
  std::uint64_t run_digest = 0;
  std::uint64_t invariant_checks = 0;      ///< Tick-level audits performed.
  std::uint64_t invariant_violations = 0;  ///< Breaches detected (want 0).
  /// First few violations as "category: message" (capped; for diagnostics).
  std::vector<std::string> invariant_messages;
};

/// Bytes `config`'s pod workload needs at its expected pod count
/// (workload::expected_pod_count): each pod's spec, its cluster Pod and its
/// entry in the arrival order Cluster::load replays. The whole workload is
/// generated before the run starts, so inputs compare this with the host's
/// memory first.
double workload_footprint_bytes(const ExperimentConfig& config);

/// The pods KubeKnots::submit_mix_workload() submits for `config`: its app
/// mix drawn at its seed, every request capped at the fleet's smallest
/// device. Inputs read it to check the workload against tenant caps.
std::vector<workload::PodSpec> generate_mix_workload(
    const ExperimentConfig& config);

/// Pods KubeKnots::submit_mix_workload() generates for `config`, counted
/// without building them (workload::generated_pod_count). Inputs reject a
/// workload of none: its run would place nothing and report an empty run.
std::size_t workload_pod_count(const ExperimentConfig& config);

/// Distils a finished cluster's metrics into a report.
ExperimentReport build_report(const cluster::Cluster& cl,
                              std::string scheduler_name, int mix_id);

/// The invariant checker's posture for a run under `scheduler`. Res-Ag is
/// the blind baseline whose whole point is overcommitting declared requests
/// past capacity (§II fragmentation story), so its provisioned-claim
/// ceiling is left unchecked; the utilization-aware policies and the
/// exclusive-access stock scheduler must stay within the physical device.
verify::InvariantOptions invariant_options(sched::SchedulerKind scheduler);

/// Copies a finished run's digest and invariant-checker results onto
/// `report`, which build_report leaves empty.
void record_verification(ExperimentReport& report,
                         const verify::RunDigest& digest,
                         const verify::InvariantChecker& verifier);

/// Runs the configuration to completion (single-threaded, deterministic).
ExperimentReport run_experiment(const ExperimentConfig& config);

/// Optional observability attachments for a run. Both pointers are borrowed
/// (must outlive the call) and may independently be null. Attaching either
/// never changes the run's decisions or digest.
struct RunObservability {
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// run_experiment with tracing/metrics attached for the run's duration.
ExperimentReport run_experiment(const ExperimentConfig& config,
                                const RunObservability& observability);

/// Cartesian sweep grid: every (scheduler, seed, load_scale) combination
/// becomes one independent experiment. `load_scales` multiply the base
/// config's batch and LC arrival-rate scales. An empty `seeds` list means
/// "the base config's seed" — the common one-run-per-scheduler sweep.
struct SweepGrid {
  std::vector<sched::SchedulerKind> schedulers;
  std::vector<std::uint64_t> seeds;
  std::vector<double> load_scales = {1.0};

  [[nodiscard]] std::size_t size() const noexcept {
    return schedulers.size() * std::max<std::size_t>(1, seeds.size()) *
           load_scales.size();
  }
};

/// One grid coordinate and its finished report.
struct SweepResult {
  sched::SchedulerKind scheduler{};
  std::uint64_t seed = 0;
  double load_scale = 1.0;
  ExperimentReport report;
};

/// Runs the whole grid on a core::ThreadPool (`threads` = 0 → hardware
/// concurrency) with dynamic work distribution — each simulation is
/// single-threaded and deterministic, so results are independent of thread
/// schedule. Results are returned in deterministic scheduler-major order
/// (scheduler, then seed, then load_scale, each in grid order).
std::vector<SweepResult> run_sweep(const ExperimentConfig& base,
                                   const SweepGrid& grid,
                                   std::size_t threads = 0);

}  // namespace knots
