// Composable open-loop arrival processes.
//
// An ArrivalProcess turns (window, Rng) into a sorted list of arrival
// times. Generators are pure: the same (process, duration, rng) triple
// always yields the same stream, so serving runs and workload generation
// stay bit-identical from run to run and across the threads of a sweep.
// Seed child streams off `Rng::fork_at` when a scenario needs several
// independent processes from one seed.
//
// Shapes (ROADMAP item 3): Poisson baseline, diurnal sinusoid (daily
// peaks), flash crowd (a breaking-news rate spike on top of a Poisson
// floor), verbatim trace replay, and the Alibaba-2017 log-normal burst
// model that the batch load generator has always used — now one
// implementation of the shared interface.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"

namespace knots::workload {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Arrival times in (0, duration), ascending. Pure in (duration, rng).
  [[nodiscard]] virtual std::vector<SimTime> generate(SimTime duration,
                                                      Rng rng) const = 0;

  /// Nominal mean rate in requests/sec (for capacity planning; shapes with
  /// time-varying intensity report their time-averaged rate).
  [[nodiscard]] virtual double mean_qps() const noexcept = 0;
};

/// Memoryless arrivals at a constant rate — the open-loop baseline.
class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double qps);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "poisson";
  }
  [[nodiscard]] std::vector<SimTime> generate(SimTime duration,
                                              Rng rng) const override;
  [[nodiscard]] double mean_qps() const noexcept override { return qps_; }

 private:
  double qps_;
};

/// Poisson arrivals whose intensity follows a sinusoidal daily envelope:
/// rate(t) = mean_qps * (1 + amplitude * sin(2*pi * peaks * t/duration)).
/// `amplitude` in [0, 1); `peaks` is the number of peaks in the window.
class DiurnalArrivals final : public ArrivalProcess {
 public:
  DiurnalArrivals(double mean_qps, double amplitude = 0.4, int peaks = 2);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "diurnal";
  }
  [[nodiscard]] std::vector<SimTime> generate(SimTime duration,
                                              Rng rng) const override;
  [[nodiscard]] double mean_qps() const noexcept override { return qps_; }

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

  [[nodiscard]] std::string_view name() const noexcept override {
    return "flash-crowd";
  }
  [[nodiscard]] std::vector<SimTime> generate(SimTime duration,
                                              Rng rng) const override;
  [[nodiscard]] double mean_qps() const noexcept override;

  [[nodiscard]] SimTime spike_at() const noexcept { return spike_at_; }
  [[nodiscard]] SimTime spike_end() const noexcept {
    return spike_at_ + spike_duration_;
  }

 private:
  double base_qps_;
  double multiplier_;
  SimTime spike_at_;
  SimTime spike_duration_;
};

/// Replays recorded arrival times verbatim (clipped to the window). Draws
/// no randomness; the rng argument is unused.
class TraceArrivals final : public ArrivalProcess {
 public:
  explicit TraceArrivals(std::vector<SimTime> times);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "trace";
  }
  [[nodiscard]] std::vector<SimTime> generate(SimTime duration,
                                              Rng rng) const override;
  [[nodiscard]] double mean_qps() const noexcept override;

 private:
  std::vector<SimTime> times_;
};

/// The Alibaba-2017 model: log-normal inter-arrival bursts (COV set by
/// `burstiness`) under a two-peak diurnal envelope — bit-identical to
/// AlibabaTrace::arrivals() with the same rng.
class AlibabaArrivals final : public ArrivalProcess {
 public:
  AlibabaArrivals(SimTime mean_interarrival, double burstiness = 0.5,
                  bool diurnal = true);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "alibaba";
  }
  [[nodiscard]] std::vector<SimTime> generate(SimTime duration,
                                              Rng rng) const override;
  [[nodiscard]] double mean_qps() const noexcept override;

 private:
  SimTime mean_interarrival_;
  double burstiness_;
  bool diurnal_;
};

}  // namespace knots::workload
