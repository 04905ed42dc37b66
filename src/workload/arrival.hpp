// Composable open-loop arrival processes.
//
// An ArrivalProcess turns (window, Rng) into a sorted list of arrival
// times. Generators are pure: the same (process, duration, rng) triple
// always yields the same stream, so serving runs and workload generation
// stay bit-identical from run to run and across the threads of a sweep.
// Seed child streams off `Rng::fork_at` when a scenario needs several
// independent processes from one seed.
//
// Shapes: Poisson baseline, diurnal sinusoid (daily peaks) and flash crowd
// (a breaking-news rate spike on top of a Poisson floor), which drive
// serving runs, and the Alibaba-2017 log-normal burst model that the batch
// load generator has always used — now one implementation of the shared
// interface.
#pragma once

#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"

namespace knots::workload {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Arrival times in (0, duration), ascending. Pure in (duration, rng).
  [[nodiscard]] virtual std::vector<SimTime> generate(SimTime duration,
                                                      Rng rng) const = 0;
};

/// Memoryless arrivals at a constant rate — the open-loop baseline.
class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double qps);

  [[nodiscard]] std::vector<SimTime> generate(SimTime duration,
                                              Rng rng) const override;

 private:
  double qps_;
};

/// Poisson arrivals whose intensity follows a sinusoidal daily envelope:
/// rate(t) = mean_qps * (1 + amplitude * sin(2*pi * peaks * t/duration)).
/// `amplitude` in [0, 1); `peaks` is the number of peaks in the window.
class DiurnalArrivals final : public ArrivalProcess {
 public:
  DiurnalArrivals(double mean_qps, double amplitude = 0.4, int peaks = 2);

  [[nodiscard]] std::vector<SimTime> generate(SimTime duration,
                                              Rng rng) const override;

 private:
  double qps_;
  double amplitude_;
  int peaks_;
};

/// Poisson floor at base_qps, multiplied by `spike_multiplier` inside the
/// window [spike_at, spike_at + spike_duration) — breaking-news traffic.
class FlashCrowdArrivals final : public ArrivalProcess {
 public:
  FlashCrowdArrivals(double base_qps, double spike_multiplier,
                     SimTime spike_at, SimTime spike_duration);

  [[nodiscard]] std::vector<SimTime> generate(SimTime duration,
                                              Rng rng) const override;

 private:
  double base_qps_;
  double multiplier_;
  SimTime spike_at_;
  SimTime spike_duration_;
};

/// The Alibaba-2017 model: log-normal inter-arrival bursts (COV set by
/// `burstiness`) under a two-peak diurnal envelope — bit-identical to
/// AlibabaTrace::arrivals() with the same rng.
class AlibabaArrivals final : public ArrivalProcess {
 public:
  AlibabaArrivals(SimTime mean_interarrival, double burstiness = 0.5,
                  bool diurnal = true);

  [[nodiscard]] std::vector<SimTime> generate(SimTime duration,
                                              Rng rng) const override;

 private:
  SimTime mean_interarrival_;
  double burstiness_;
  bool diurnal_;
};

}  // namespace knots::workload
