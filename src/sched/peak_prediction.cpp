#include "sched/peak_prediction.hpp"

#include <algorithm>

#include "cluster/cluster.hpp"
#include "stats/arima.hpp"
#include "stats/autocorrelation.hpp"

namespace knots::sched {

namespace {
// §IV-D: one-second ARIMA forecast, one step per telemetry tick.
constexpr SimTime kForecastHorizon = 1 * kSec;
static_assert(kForecastHorizon >= cluster::kTick, "forecast a tick or more");
// Minimum positive lag-1 autocorrelation before trusting a forecast.
constexpr double kMinAutocorrelation = 0.0;
}  // namespace

bool PeakPredictionScheduler::forecast_override(
    const cluster::Cluster& cl, const telemetry::GpuView& view,
    double needed_mb) const {
  // A stale series would feed the ARIMA frozen samples: the fit would be
  // confident and wrong. Fall back to CBP's conservative veto.
  if (view.stale) return false;
  cl.aggregator().window_into(view.gpu, cl.now(), params_.window,
                              window_scratch_);
  const auto& series = window_scratch_;
  if (series.size() < 10) return false;
  ++forecasts_;

  // Eq. 2: no positive autocorrelation → the series carries no
  // forecastable trend; stay conservative.
  const double r1 = stats::autocorrelation(series, 1);
  if (r1 <= kMinAutocorrelation) return false;

  // Eq. 3: first-order ARIMA forecast of memory utilization, iterated over
  // the forecast horizon (sample spacing = scheduling tick).
  stats::Arima1 model;
  model.fit(series);
  const double pred_util = std::clamp(
      model.predict_ahead(kForecastHorizon / cluster::kTick), 0.0, 1.0);
  const double capacity = cl.device(view.gpu).effective_memory_mb();
  const double pred_free = capacity * (1.0 - pred_util);
  return pred_free >= needed_mb;
}

}  // namespace knots::sched
