// Pod runtime state machine.
//
//   Pending → Starting (image pull / container launch) → Running
//     → Completed                  (profile fully executed)
//     → Crashed → Pending          (capacity violation; relaunch after delay,
//                                   back of the queue, progress lost)
//     → Evicted → Pending          (hosting node died; relaunch after the
//                                   eviction delay, progress lost)
#pragma once

#include <string_view>

#include "core/types.hpp"
#include "workload/load_generator.hpp"

namespace knots::cluster {

enum class PodState {
  kPending,
  kStarting,
  kRunning,
  kCompleted,
  kCrashed,
  kEvicted,
};

std::string_view to_string(PodState s) noexcept;

/// Profile-store key for a pod: batch pods profile per image; inference
/// pods profile per (service, batch size) since the footprint scales with
/// the batch.
std::string image_key(const workload::PodSpec& spec);

class Pod {
 public:
  explicit Pod(workload::PodSpec spec)
      : spec_(std::move(spec)), profile_key_(image_key(spec_)) {}

  [[nodiscard]] const workload::PodSpec& spec() const noexcept { return spec_; }
  /// image_key(spec()), computed once — the schedulers' profile lookups
  /// would otherwise rebuild the string per resident per tick.
  [[nodiscard]] const std::string& profile_key() const noexcept {
    return profile_key_;
  }
  [[nodiscard]] PodId id() const noexcept { return spec_.id; }
  [[nodiscard]] PodState state() const noexcept { return state_; }
  [[nodiscard]] bool terminal() const noexcept {
    return state_ == PodState::kCompleted;
  }
  [[nodiscard]] bool latency_critical() const noexcept {
    return spec_.klass == workload::PodClass::kLatencyCritical;
  }

  [[nodiscard]] GpuId gpu() const noexcept { return gpu_; }
  [[nodiscard]] SimTime app_time() const noexcept { return app_time_; }
  [[nodiscard]] double provisioned_mb() const noexcept { return provisioned_mb_; }
  [[nodiscard]] int crash_count() const noexcept { return crash_count_; }
  [[nodiscard]] int evict_count() const noexcept { return evict_count_; }
  [[nodiscard]] SimTime first_start() const noexcept { return first_start_; }
  [[nodiscard]] SimTime completion() const noexcept { return completion_; }
  [[nodiscard]] SimTime running_since() const noexcept { return running_since_; }

  /// Fraction of the profile executed, in [0,1].
  [[nodiscard]] double progress() const noexcept;
  [[nodiscard]] bool finished_profile() const noexcept {
    return app_time_ >= spec_.profile.total_duration();
  }
  /// Whether advancing by `dt` would finish the profile. The tick uses this
  /// to decide whether the pod draws a usage-jitter RNG stream before it
  /// advances (a completing pod draws no jitter, so it consumes no stream).
  [[nodiscard]] bool would_finish(SimTime dt) const noexcept {
    return app_time_ + dt >= spec_.profile.total_duration();
  }

  /// Current ground-truth demand (profile evaluated at app-time).
  [[nodiscard]] gpu::Usage current_usage() const;

  // -- State transitions (driven by the Cluster) --
  void begin_start(GpuId gpu, double provisioned_mb, SimTime now,
                   SimTime ready_at);
  [[nodiscard]] SimTime ready_at() const noexcept { return ready_at_; }
  /// Moves the start deadline of a kStarting pod (fabric image pulls gate
  /// readiness on the transfer finishing instead of a fixed latency).
  void set_ready_at(SimTime ready_at) noexcept { ready_at_ = ready_at; }
  void begin_running(SimTime now);
  /// Advances virtual application time by `dt` of delivered GPU time.
  void advance(SimTime dt);
  void complete(SimTime now);
  void crash(SimTime now);
  /// Fault-path removal from a dying node (progress lost, like a crash,
  /// but tallied separately — the pod did nothing wrong).
  void evict(SimTime now);
  /// Re-enters the pending queue after a crash or eviction.
  void requeue() ;
  void set_provisioned_mb(double mb) noexcept { provisioned_mb_ = mb; }

 private:
  workload::PodSpec spec_;
  std::string profile_key_;
  PodState state_ = PodState::kPending;
  GpuId gpu_{};
  double provisioned_mb_ = 0;
  SimTime app_time_ = 0;
  SimTime ready_at_ = 0;
  SimTime first_start_ = -1;
  SimTime running_since_ = -1;
  SimTime completion_ = -1;
  int crash_count_ = 0;
  int evict_count_ = 0;
};

}  // namespace knots::cluster
