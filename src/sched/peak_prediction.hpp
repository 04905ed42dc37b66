// PP — Peak Prediction scheduler (§IV-D, Algorithm 1), layered on CBP.
//
// Where CBP vetoes co-locating positively-correlated pods outright, PP
// probes the node's recent memory series: if the autocorrelation shows a
// forecastable trend (Eq. 2), a first-order ARIMA (Eq. 3) predicts the
// node's utilization one second out; when the predicted free memory covers
// the pod's resized footprint, the co-location is admitted — positively
// correlated pods are safe as long as their peaks interleave.
#pragma once

#include <vector>

#include "sched/cbp.hpp"

namespace knots::sched {

class PeakPredictionScheduler final : public CbpScheduler {
 public:
  explicit PeakPredictionScheduler(SchedParams params = {})
      : CbpScheduler(params, "pp") {}

  [[nodiscard]] std::string name() const override { return "PP"; }

  /// Forecasts fitted so far (observability / tests).
  [[nodiscard]] std::size_t forecasts_made() const noexcept {
    return forecasts_;
  }

 protected:
  [[nodiscard]] bool forecast_override(const cluster::Cluster& cluster,
                                       const telemetry::GpuView& view,
                                       double needed_mb) const override;

 private:
  mutable std::size_t forecasts_ = 0;
  /// Window materialization scratch, reused across candidate GPUs and
  /// ticks — the ARIMA fit needs contiguous doubles, but refilling this
  /// buffer allocates nothing once it has warmed up to the window length.
  mutable std::vector<double> window_scratch_;
};

}  // namespace knots::sched
