// knots::serve — open-loop, request-driven inference serving on the
// simulated GPU cluster (ROADMAP item 3).
//
// A ServingConfig describes per-service traffic (an ArrivalProcess shape +
// mean QPS), dynamic-batching knobs, an SLO that admission sheds against,
// and an autoscaling floor, layered over an ordinary ExperimentConfig whose
// batch workload keeps the cluster busy underneath (the harvest
// substrate). run_serving() wires the serving engine onto the cluster's
// event loop and returns a ServingReport: per-service and aggregate tail
// latency (p50/p99/p999 over the *full* request population), admission and
// autoscaler activity, plus the usual cluster-side ExperimentReport and an
// order-sensitive serve digest — identical (config, seed) runs are
// bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "knots/experiment.hpp"
#include "serve/request.hpp"
#include "workload/arrival.hpp"
#include "workload/djinn_tonic.hpp"

namespace knots::serve {

/// Which ArrivalProcess shape drives a serving run.
enum class ArrivalShape : std::uint8_t {
  kPoisson,
  kDiurnal,
  kFlashCrowd,
};

[[nodiscard]] std::string_view to_string(ArrivalShape s) noexcept;

/// Shape parameters shared by every service in the run (each service still
/// draws its own independent arrival stream off Rng::fork_at). A diurnal
/// run has two peaks in the window; a flash crowd's spike starts at half
/// the window and lasts a tenth of it.
struct ArrivalShapeConfig {
  ArrivalShape shape = ArrivalShape::kPoisson;
  double diurnal_amplitude = 0.4;  ///< kDiurnal: rate swing fraction.
  double spike_multiplier = 5.0;   ///< kFlashCrowd: rate multiple in spike.
};

/// One deployed inference service.
struct ServiceConfig {
  workload::Service service = workload::Service::kImc;
  double qps = 100.0;                  ///< Mean offered rate.
  int max_batch = 16;                  ///< Dynamic-batching ceiling.
  SimTime batch_timeout = 10 * kMsec;  ///< Size-or-timeout window.
  SimTime slo = 150 * kMsec;           ///< Relative deadline per request.
  /// Autoscaling floor; the ceiling is 8 replicas per service.
  int min_replicas = 1;
  /// Owning tenant: replicas are charged to this tenant's quota (0 = the
  /// default tenant; the ledger stays inactive without quotas).
  int tenant = 0;
};

struct ServingConfig {
  /// Cluster topology, scheduler, seed, fault plan and the *batch* side of
  /// the mix workload (its latency-critical query pods are replaced by the
  /// request stream below).
  ExperimentConfig experiment;
  std::vector<ServiceConfig> services;
  ArrivalShapeConfig arrivals;
  SimTime window = 60 * kSec;  ///< Request-arrival window.
  /// Re-size each service every 2 s of the window.
  bool autoscale = true;
  /// Run the experiment mix's batch pods underneath the serving traffic
  /// (the capacity being harvested). Off = serving-only cluster.
  bool background_batch = true;
};

/// Default three-service deployment (face / imc / key) at the given
/// aggregate QPS, split 50/30/20.
ServingConfig default_serving(double total_qps, ArrivalShape shape,
                              sched::SchedulerKind scheduler =
                                  sched::SchedulerKind::kPeakPrediction);

/// Latency percentiles over the full served population, milliseconds.
struct LatencyStats {
  double p50_ms = 0, p99_ms = 0, p999_ms = 0, max_ms = 0, mean_ms = 0;
};

struct ServiceStats {
  std::string service;
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t expired = 0;
  std::size_t completed = 0;  ///< Served.
  /// Always zero (no degraded model); the benchmark's serving run reads it.
  std::size_t degraded = 0;
  std::size_t slo_violations = 0;  ///< Served past the deadline.
  LatencyStats latency;
  double achieved_qps = 0;  ///< Served requests / window.
  int peak_replicas = 0;
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
};

struct ServingReport {
  ExperimentReport experiment;  ///< Cluster-side report (digest et al.).
  std::vector<ServiceStats> services;

  // Aggregates over all services.
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t expired = 0;
  std::size_t completed = 0;
  std::size_t degraded = 0;  ///< Always zero, as ServiceStats::degraded.
  std::size_t slo_violations = 0;
  LatencyStats latency;
  double offered_qps = 0;
  double achieved_qps = 0;

  std::size_t batches = 0;
  double mean_batch_fill = 0;  ///< Mean batch size / max_batch.
  std::size_t replicas_launched = 0;
  std::size_t replicas_retired = 0;
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;

  /// Order-sensitive FNV-1a digest over every request-level event and
  /// scale decision. Identical (config, seed) serving runs produce
  /// identical values.
  std::uint64_t serve_digest = 0;
};

/// Bytes a serving run needs before its first event: every service's
/// requests at the shape's peak rate (qps × window × peak multiplier), each
/// a Request and its queued arrival event, plus the background batch workload (workload_footprint_bytes over
/// the window). Inputs compare this with the host's memory first.
double serving_footprint_bytes(const ServingConfig& config);

/// Runs the serving scenario to completion (single-threaded,
/// deterministic).
ServingReport run_serving(const ServingConfig& config);

/// run_serving with tracing/metrics attached for the run's duration.
/// Attachments are purely observational: digests are bit-identical to the
/// unobserved run.
ServingReport run_serving(const ServingConfig& config,
                          const RunObservability& observability);

}  // namespace knots::serve
