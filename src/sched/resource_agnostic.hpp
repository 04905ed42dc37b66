// Res-Ag: GPU sharing enabled (modified Nvidia k8s-device-plugin) but fully
// agnostic of real-time GPU utilization (§IV-B). Pods, largest declared
// request first, go to a random GPU with a free share (each GPU has
// `max_residents`) and are provisioned at their *declared* requests; nobody
// watches actual usage, so coincident peaks cause capacity violations,
// crashes and interference.
#pragma once

#include "cluster/scheduler.hpp"
#include "core/rng.hpp"
#include "sched/params.hpp"

namespace knots::sched {

class ResourceAgnosticScheduler final : public cluster::Scheduler {
 public:
  explicit ResourceAgnosticScheduler(SchedParams params = {})
      : params_(params), rng_(kSeed) {}

  [[nodiscard]] std::string name() const override { return "Res-Ag"; }
  void on_schedule(cluster::SchedulingContext& ctx) override;

 private:
  static constexpr std::uint64_t kSeed = 7;  ///< Seeds the random pick.
  SchedParams params_;
  Rng rng_;
  std::vector<GpuId> feasible_;  ///< Reused per-pod scratch.
};

}  // namespace knots::sched
