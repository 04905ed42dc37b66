// CBP — Correlation Based Provisioning (§IV-C).
//
// Utilization-aware sharing: batch containers are resized ("harvested") to
// their 80th-percentile footprint using the head node's per-image profiles,
// and pods are only co-located when their memory signatures do NOT
// positively correlate above a threshold — uncorrelated peaks rarely
// coincide, so harvested co-location stays crash-free. Latency-critical
// queries are admitted first, with an SM-headroom guard for QoS.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/pod.hpp"
#include "cluster/profile_store.hpp"
#include "cluster/scheduler.hpp"
#include "gpu/gpu_device.hpp"
#include "sched/params.hpp"
#include "telemetry/aggregator.hpp"

namespace knots::sched {

class CbpScheduler : public cluster::Scheduler {
 public:
  explicit CbpScheduler(SchedParams params = {})
      : CbpScheduler(params, "cbp") {}

  [[nodiscard]] std::string name() const override { return "CBP"; }
  void on_schedule(cluster::SchedulingContext& ctx) override;
  /// CBP/PP consolidate onto active GPUs and let idle ones deep-sleep.
  [[nodiscard]] bool parks_idle_gpus() const override { return true; }

  [[nodiscard]] const SchedParams& params() const noexcept { return params_; }
  /// Entries in the batch-target cache: one per image id up to the highest
  /// batch image sized or harvested so far, however many pods ran.
  [[nodiscard]] std::size_t cached_targets() const noexcept {
    return targets_.size();
  }

 protected:
  /// Derived policies (PP) pass their own prefix so traced kDecision
  /// rationales carry the right policy tag.
  CbpScheduler(SchedParams params, const std::string& trace_prefix)
      : params_(params),
        rationale_placed_(trace_prefix + ":best-fit"),
        rationale_woke_(trace_prefix + ":woke-parked"),
        rationale_no_fit_(trace_prefix + ":no-fit"),
        rationale_quota_(trace_prefix + ":tenant-over-quota") {}

  /// PP's hook: may admit a positively-correlated co-location when the
  /// node's forecast says the peaks will not collide. CBP never does.
  [[nodiscard]] virtual bool forecast_override(
      const cluster::Cluster& cluster, const telemetry::GpuView& view,
      double needed_mb) const;

  /// Container size for a pod: percentile of the image's observed footprint
  /// when the image is known, the (conservative) user request otherwise.
  [[nodiscard]] double sizing_mb(const cluster::Cluster& cluster,
                                 const cluster::Pod& pod) const;
  /// Expected SM demand (profiled mean, or the conservative default).
  [[nodiscard]] double sm_estimate(const cluster::Cluster& cluster,
                                   const cluster::Pod& pod) const;
  /// Worst-case SM demand of a resident (profiled peak; 1.0 if unknown).
  [[nodiscard]] double peak_sm_estimate(const cluster::Cluster& cluster,
                                        const cluster::Pod& pod) const;
  /// QoS guard for latency-critical placement: even if every resident hits
  /// its profiled SM peak simultaneously, the query's slowdown must keep it
  /// inside its deadline. This is the utilization-awareness Res-Ag lacks.
  [[nodiscard]] bool lc_peak_safe(const cluster::Cluster& cluster,
                                  const cluster::Pod& pod,
                                  const gpu::GpuDevice& dev) const;
  /// Can_Co-locate: no resident image correlates above the threshold.
  [[nodiscard]] bool correlation_ok(const cluster::Cluster& cluster,
                                    const cluster::Pod& pod,
                                    const gpu::GpuDevice& dev) const;
  /// Harvests over-provisioned running batch containers down to percentile.
  void harvest(cluster::Cluster& cluster);

  SchedParams params_;
  std::string rationale_placed_;
  std::string rationale_woke_;
  std::string rationale_no_fit_;
  std::string rationale_quota_;

 private:
  /// One image's batch target and the profile's observed_runs it was
  /// derived at (0: never). record_run() merges every later run into the
  /// profile in place, so the run count is what says the target moved.
  struct ImageTarget {
    int runs = 0;
    double target_mb = 0.0;
  };
  /// A batch pod's container size: max(64, signature percentile ×
  /// headroom) of its image's non-empty profile, what both the first-fit
  /// sizing and the harvest resize to. Re-derived only after the profile
  /// took another run.
  [[nodiscard]] double batch_target_mb(ImageId image,
                                       const cluster::ImageProfile& prof) const;

  /// Indexed by ImageId.
  mutable std::vector<ImageTarget> targets_;
  /// Scratch for the first-fit-decreasing sort: (sizing_mb, pod).
  std::vector<std::pair<double, PodId>> sized_batch_;
};

}  // namespace knots::sched
