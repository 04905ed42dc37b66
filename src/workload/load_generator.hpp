// Pod specifications and the cluster load generator.
//
// The generator mirrors §III: task arrivals follow the Alibaba inter-arrival
// pattern (log-normal bursts + diurnal envelope), the batch/LC split follows
// the Pareto principle, batch jobs are scaled-up Rodinia profiles, and
// latency-critical pods are single batched inference queries with a 150 ms
// end-to-end QoS target ("the tail at scale").
#pragma once

#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "gpu/device_model.hpp"
#include "workload/alibaba.hpp"
#include "workload/app_mix.hpp"
#include "workload/app_profile.hpp"

namespace knots::workload {

enum class PodClass {
  kBatch,            ///< Best-effort harvest job (Rodinia).
  kLatencyCritical,  ///< One user-facing inference query with a deadline.
  kService,          ///< Long-running serving replica managed by knots::serve.
};

/// Everything the orchestrator knows about a pod when it arrives.
struct PodSpec {
  PodId id{};
  std::string app;            ///< Image name (rodinia app / inference service).
  PodClass klass = PodClass::kBatch;
  SimTime arrival = 0;
  AppProfile profile;         ///< Ground-truth usage trace (the pod runs this).
  double requested_mb = 0;    ///< User-declared memory request (overstated).
  SimTime qos_latency = 0;    ///< LC only: end-to-end deadline (150 ms).
  int batch_size = 1;         ///< LC only: inference batch size.
  /// TensorFlow default allocator: the pod greedily earmarks ~99 % of
  /// whatever its container allocation permits, regardless of footprint
  /// (Fig 4's TF series). Knots-style resizing shrinks the allocation and
  /// thereby the earmark; GPU-agnostic schedulers leave it whole-device.
  bool tf_greedy = false;
  /// Owning tenant for quota accounting (0 = the default tenant; a cluster
  /// with no quotas and only tenant 0 keeps the ledger inactive).
  int tenant = 0;
  /// Keep this pod off spot/preemptible nodes (SLO-bearing serving replicas
  /// set it; harvested best-effort work leaves it false). Honored by
  /// spot-aware schedulers as a hard placement constraint.
  bool avoid_preemptible = false;
};

struct LoadGenConfig {
  SimTime duration = 600 * kSec;  ///< Arrival window.
  double device_memory_mb = gpu::default_device_model().gpu.memory_mb;
  /// Global intensity knobs (1.0 = paper-calibrated defaults for a
  /// ten-node single-GPU cluster).
  double batch_rate_scale = 1.0;
  double lc_rate_scale = 1.0;
  /// Batch-job length scaling range (characterization cycle → job).
  double min_time_scale = 20.0;
  double max_time_scale = 45.0;
  /// Multi-tenant scenarios: generated pods are assigned these tenant ids
  /// round-robin in arrival order. Empty = everything on tenant 0 (the
  /// single-tenant default).
  std::vector<int> tenants{};
};

/// Mean batch-pod inter-arrival for a load level (before rate_scale).
SimTime batch_interarrival(LoadLevel level);
/// Mean LC-query inter-arrival for a load level (before rate_scale).
SimTime lc_interarrival(LoadLevel level);
/// Arrival burstiness for a COV level.
double arrival_burstiness(CovLevel level);

/// Mean inter-arrival gaps of a mix's two streams as generate_workload
/// draws them: each load level's base gap over its rate scale, truncated to
/// whole microseconds. A gap is 0 when its scale leaves none a stream can
/// draw with (under 1 µs, or past what a SimTime holds); inputs reject such
/// a scale, and generating with it aborts.
struct StreamGaps {
  SimTime batch = 0;
  SimTime lc = 0;
};
StreamGaps mean_interarrivals(const AppMix& mix, const LoadGenConfig& config);

/// Mean number of pods generate_workload draws for `mix` under `config`:
/// the arrival window over each stream's mean_interarrivals gap. Inputs
/// size a workload by it before generating anything.
double expected_pod_count(const AppMix& mix, const LoadGenConfig& config);

/// Number of pods generate_workload(mix, config, rng) draws, counted from
/// its arrival streams without building a pod. Inputs reject a workload
/// that generates none: its run would do nothing.
std::size_t generated_pod_count(const AppMix& mix, const LoadGenConfig& config,
                                Rng rng);

/// Generates the pod arrival stream for one app mix, sorted by arrival time.
std::vector<PodSpec> generate_workload(const AppMix& mix,
                                       const LoadGenConfig& config, Rng rng);

}  // namespace knots::workload
