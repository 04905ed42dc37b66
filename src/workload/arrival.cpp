#include "workload/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/check.hpp"
#include "workload/alibaba.hpp"

namespace knots::workload {

namespace {

constexpr double kUsPerSec = 1e6;

/// Inhomogeneous-Poisson sampler via time-rescaled exponential gaps: the
/// gap drawn at the current time is divided by the local intensity, so
/// rate(t) = qps * intensity(t). `intensity` must be >= some positive
/// floor over the window.
template <typename IntensityFn>
std::vector<SimTime> modulated_poisson(SimTime duration, double qps, Rng& rng,
                                       IntensityFn intensity) {
  std::vector<SimTime> out;
  KNOTS_CHECK(qps >= 0.0);
  if (qps <= 0.0 || duration <= 0) return out;
  const double mean_gap_us = kUsPerSec / qps;
  SimTime t = 0;
  while (true) {
    double gap = rng.exponential(mean_gap_us);
    gap /= intensity(t);
    t += std::max<SimTime>(1, static_cast<SimTime>(gap));
    if (t >= duration) break;
    out.push_back(t);
  }
  return out;
}

}  // namespace

PoissonArrivals::PoissonArrivals(double qps) : qps_(qps) {
  KNOTS_CHECK(qps >= 0.0);
}

std::vector<SimTime> PoissonArrivals::generate(SimTime duration,
                                               Rng rng) const {
  return modulated_poisson(duration, qps_, rng, [](SimTime) { return 1.0; });
}

DiurnalArrivals::DiurnalArrivals(double mean_qps, double amplitude, int peaks)
    : qps_(mean_qps), amplitude_(amplitude), peaks_(peaks) {
  KNOTS_CHECK(mean_qps >= 0.0);
  KNOTS_CHECK(amplitude >= 0.0 && amplitude < 1.0);
  KNOTS_CHECK(peaks >= 1);
}

std::vector<SimTime> DiurnalArrivals::generate(SimTime duration,
                                               Rng rng) const {
  const double window = static_cast<double>(std::max<SimTime>(duration, 1));
  return modulated_poisson(duration, qps_, rng, [&](SimTime t) {
    const double phase = static_cast<double>(t) / window;
    return 1.0 + amplitude_ * std::sin(2.0 * std::numbers::pi *
                                       static_cast<double>(peaks_) * phase);
  });
}

FlashCrowdArrivals::FlashCrowdArrivals(double base_qps,
                                       double spike_multiplier,
                                       SimTime spike_at,
                                       SimTime spike_duration)
    : base_qps_(base_qps),
      multiplier_(spike_multiplier),
      spike_at_(spike_at),
      spike_duration_(spike_duration) {
  KNOTS_CHECK(base_qps >= 0.0);
  KNOTS_CHECK(spike_multiplier >= 1.0);
  KNOTS_CHECK(spike_at >= 0);
  KNOTS_CHECK(spike_duration >= 0);
}

std::vector<SimTime> FlashCrowdArrivals::generate(SimTime duration,
                                                  Rng rng) const {
  return modulated_poisson(duration, base_qps_, rng, [&](SimTime t) {
    const bool in_spike = t >= spike_at_ && t < spike_at_ + spike_duration_;
    return in_spike ? multiplier_ : 1.0;
  });
}

AlibabaArrivals::AlibabaArrivals(SimTime mean_interarrival, double burstiness,
                                 bool diurnal)
    : mean_interarrival_(mean_interarrival),
      burstiness_(burstiness),
      diurnal_(diurnal) {
  KNOTS_CHECK(mean_interarrival > 0);
  KNOTS_CHECK(burstiness >= 0.0);
}

std::vector<SimTime> AlibabaArrivals::generate(SimTime duration,
                                               Rng rng) const {
  AlibabaTrace trace(rng);
  return trace.arrivals(duration, mean_interarrival_, burstiness_, diurnal_);
}

}  // namespace knots::workload
