// Harvest-aware replica autoscaler (decision model).
//
// KIS-S-style simulator/autoscaler split: this class is the pure decision
// half — an EWMA arrival-rate tracker and a capacity model mapping rate to
// a target replica count — while the serving engine applies the decision
// through the cluster control plane (submit_pod / finish_pod), where the
// *existing* scheduler places replicas into harvested batch capacity.
//
//   target = ceil(ewma_qps / (per_replica_qps * target_utilization))
//   clamped to [min_replicas, max_replicas]
//
// where per_replica_qps is the caller's live estimate of what one replica
// sustains. Running replicas below target_utilization of that
// capacity are headroom for bursts; the clamp keeps flash crowds from
// unbounded scale-out.
#pragma once

#include <cstddef>

#include "core/types.hpp"

namespace knots::serve {

class AutoscalerModel {
 public:
  AutoscalerModel(double target_utilization, double ewma_alpha,
                  int min_replicas, int max_replicas);

  /// Feeds one period's arrival count and the requests/sec one replica
  /// currently sustains (observed fill / observed contended batch time,
  /// positive); returns the new target replica count. The first period
  /// seeds the EWMA directly.
  int update(std::size_t arrivals_in_period, SimTime period,
             double per_replica_qps);

 private:
  double target_util_;
  double alpha_;
  int min_replicas_;
  int max_replicas_;
  double ewma_qps_ = -1.0;  ///< <0 = unseeded.
};

}  // namespace knots::serve
