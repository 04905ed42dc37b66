// The benchmark's workloads and the composed runs that execute them.
//
// Each workload is built from the simulator's public API. A composed run
// splits what run_experiment / run_serving / run_dl_simulation do into a
// timed set-up (workload generation, substrate construction, load, and for
// serving ServingEngine::prime) and a timed run (simulation plus report),
// making the same calls in the same order, so its digests equal the library
// entry point's for the same config. With tracing attached, the composed
// run also routes the scheduler, the verification observers and the DL
// policy through the probes of probes.hpp and reads the simulator's own
// profiling histograms from an obs::MetricsRegistry.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dlsim/dl_cluster.hpp"
#include "knots/experiment.hpp"
#include "runner/probes.hpp"
#include "serve/serving.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kPods1k, kDlFabric, kFleetServe };

inline constexpr std::array<std::string_view, 3> kWorkloadNames = {
    "pods-1k", "dl-fabric", "fleet-serve"};

[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload w) noexcept;

/// Size of a pod-cluster workload. The defaults are pods-1k's.
struct PodsShape {
  int nodes = 1000;
  knots::SimTime window = 20 * knots::kSec;  ///< Arrival window.
};

/// pods-1k: the paper's system at datacenter scale — single-P100 nodes at
/// the 10-node testbed's pod density (app mix 1, arrival rates scaled with
/// the node count), PP scheduler, no fabric, faults or tenants.
[[nodiscard]] knots::ExperimentConfig pods_config(std::uint64_t seed,
                                                  const PodsShape& shape = {});

/// One DL simulation, as run_dl_simulation takes it.
struct DlSpec {
  std::string policy;
  knots::dlsim::DlClusterConfig cluster;
  knots::dlsim::DlWorkloadConfig workload;
  std::uint64_t seed = 42;
};

/// dl-fabric: the Fig 12 DL workload at a quarter of its cluster and jobs
/// (the same load per GPU) under cbp-pp on a contended fabric with
/// per-step all-reduce.
[[nodiscard]] DlSpec dl_fabric_spec(std::uint64_t seed);

/// Size of the serving workload. The defaults are fleet-serve's.
struct FleetShape {
  int scale = 8;         ///< Multiplies every node class of mixed-fleet.cfg.
  double qps = 2000.0;   ///< Mean offered rate over the three services.
  knots::SimTime window = 300 * knots::kSec;  ///< Request window.
};

/// fleet-serve: flash-crowd serving of imc/face/key over background batch
/// on a heterogeneous spot fleet with two tenants, a fabric and reclaims.
[[nodiscard]] knots::serve::ServingConfig fleet_serve_config(
    std::uint64_t seed, const FleetShape& shape = {});

/// Everything one composed run measured.
struct RunOutcome {
  // Set-up and run host times, seconds.
  double generate_s = 0;
  double construct_s = 0;
  double prime_s = 0;
  double run_wall_s = 0;  ///< Around the engine's run call.
  double report_s = 0;    ///< Distilling the report after the run.
  [[nodiscard]] double setup_s() const noexcept {
    return generate_s + construct_s + prime_s;
  }
  [[nodiscard]] double run_s() const noexcept {
    return run_wall_s + report_s;
  }

  // Simulated outcomes (identical on every run of one seed).
  double mean_jct_s = 0;
  double energy_kj = 0;
  double gpu_util_p50_pct = 0;
  double slo_miss_pct = 0;
  std::uint64_t run_digest = 0;
  std::uint64_t serve_digest = 0;

  /// Operations: pods, DL jobs, DLI queries and requests. A failed one was
  /// refused, expired, or unfinished when the run ended.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Simulated work, for the rates printed beside run_s.
  std::uint64_t node_ticks = 0;
  double job_steps = 0;  ///< DL training progress, in full-speed steps.
  std::uint64_t requests = 0;

  /// Correctness-gate breaches; empty when the run is correct.
  std::vector<std::string> errors;

  /// Per-layer metrics of a traced run, in catalogue order.
  std::vector<std::pair<std::string, double>> layers;
};

/// One composed simulation: constructing it is the set-up, run() the run.
class ComposedRun {
 public:
  virtual ~ComposedRun() = default;
  ComposedRun() = default;
  ComposedRun(const ComposedRun&) = delete;
  ComposedRun& operator=(const ComposedRun&) = delete;
  ComposedRun(ComposedRun&&) = delete;
  ComposedRun& operator=(ComposedRun&&) = delete;

  /// Runs the simulation and the report. Single-shot.
  [[nodiscard]] virtual RunOutcome run() = 0;
  /// The spans a traced run recorded; null when untraced.
  [[nodiscard]] virtual const SpanRecorder* spans() const noexcept = 0;

  /// The outcome so far: the set-up timings once constructed, everything
  /// once run() returned.
  [[nodiscard]] const RunOutcome& outcome() const noexcept { return out_; }

 protected:
  RunOutcome out_;
};

/// Composed runs over explicit configs (the tests use small ones).
[[nodiscard]] std::unique_ptr<ComposedRun> make_pod_run(
    const knots::ExperimentConfig& config, bool traced);
[[nodiscard]] std::unique_ptr<ComposedRun> make_serve_run(
    const knots::serve::ServingConfig& config, bool traced);
[[nodiscard]] std::unique_ptr<ComposedRun> make_dl_run(const DlSpec& spec,
                                                       bool traced);

/// The named workload's composed run for a seed.
[[nodiscard]] std::unique_ptr<ComposedRun> make_run(Workload workload,
                                                    std::uint64_t seed,
                                                    bool traced);

/// A metric the runner reports: its name, unit and which way is better.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  ///< "lower" or "higher".
};

/// End-to-end metrics of the untraced run, the same for every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics of the traced run, in report order.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

}  // namespace perfbench
