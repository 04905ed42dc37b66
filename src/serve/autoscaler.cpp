#include "serve/autoscaler.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"

namespace knots::serve {

AutoscalerModel::AutoscalerModel(double target_utilization, double ewma_alpha,
                                 int min_replicas, int max_replicas)
    : target_util_(target_utilization),
      alpha_(ewma_alpha),
      min_replicas_(min_replicas),
      max_replicas_(max_replicas) {
  KNOTS_CHECK(target_utilization > 0.0 && target_utilization <= 1.0);
  KNOTS_CHECK(ewma_alpha > 0.0 && ewma_alpha <= 1.0);
  KNOTS_CHECK(min_replicas >= 0);
  KNOTS_CHECK(max_replicas >= min_replicas);
}

int AutoscalerModel::update(std::size_t arrivals_in_period, SimTime period,
                            double per_replica_qps) {
  KNOTS_CHECK(period > 0);
  KNOTS_CHECK(per_replica_qps > 0.0);
  const double observed = static_cast<double>(arrivals_in_period) * 1e6 /
                          static_cast<double>(period);
  ewma_qps_ = ewma_qps_ < 0 ? observed
                            : alpha_ * observed + (1.0 - alpha_) * ewma_qps_;
  const double capacity_per_replica = per_replica_qps * target_util_;
  const int demanded = static_cast<int>(
      std::ceil(ewma_qps_ / std::max(capacity_per_replica, 1e-9)));
  return std::clamp(demanded, min_replicas_, max_replicas_);
}

}  // namespace knots::serve
