// Harvest-aware replica autoscaler (decision model).
//
// KIS-S-style simulator/autoscaler split: this class is the pure decision
// half — an EWMA arrival-rate tracker and a capacity model mapping rate to
// a target replica count — while the serving engine applies the decision
// through the cluster control plane (submit_pod / finish_pod), where the
// *existing* scheduler places replicas into harvested batch capacity.
//
//   per-replica throughput = max_batch / batch_latency
//   target = ceil(ewma_qps / (throughput * target_utilization))
//   clamped to [min_replicas, max_replicas]
//
// Running replicas below target_utilization of their batch capacity are
// headroom for bursts; the clamp keeps flash crowds from unbounded
// scale-out.
#pragma once

#include <cstddef>

#include "core/types.hpp"

namespace knots::serve {

class AutoscalerModel {
 public:
  AutoscalerModel(double target_utilization, double ewma_alpha,
                  int min_replicas, int max_replicas, int max_batch,
                  SimTime batch_latency);

  /// Feeds one period's arrival count; returns the new target replica
  /// count. The first period seeds the EWMA directly. When the caller has
  /// a live estimate of what one replica actually sustains (observed fill /
  /// observed contended batch time), it passes it as
  /// `observed_throughput_qps`; non-positive falls back to the nominal
  /// replica_throughput_qps().
  int update(std::size_t arrivals_in_period, SimTime period,
             double observed_throughput_qps = -1.0);

  [[nodiscard]] int min_replicas() const noexcept { return min_replicas_; }
  [[nodiscard]] int max_replicas() const noexcept { return max_replicas_; }
  /// Requests/sec one replica sustains at full batches.
  [[nodiscard]] double replica_throughput_qps() const noexcept;

 private:
  double target_util_;
  double alpha_;
  int min_replicas_;
  int max_replicas_;
  int max_batch_;
  SimTime batch_latency_;
  double ewma_qps_ = -1.0;  ///< <0 = unseeded.
};

}  // namespace knots::serve
