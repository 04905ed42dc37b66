#include "workload/load_generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/check.hpp"
#include "workload/arrival.hpp"
#include "workload/djinn_tonic.hpp"
#include "workload/workload_spec.hpp"

namespace knots::workload {

SimTime batch_interarrival(LoadLevel level) {
  switch (level) {
    case LoadLevel::kHigh: return 7 * kSec;
    case LoadLevel::kMedium: return 9 * kSec;
    case LoadLevel::kLow: return 22 * kSec;
  }
  return 9 * kSec;
}

SimTime lc_interarrival(LoadLevel level) {
  switch (level) {
    case LoadLevel::kHigh: return 110 * kMsec;
    case LoadLevel::kMedium: return 300 * kMsec;
    case LoadLevel::kLow: return 850 * kMsec;
  }
  return 300 * kMsec;
}

double arrival_burstiness(CovLevel level) {
  switch (level) {
    case CovLevel::kLow: return 0.3;
    case CovLevel::kMedium: return 0.9;
    case CovLevel::kHigh: return 2.2;
  }
  return 0.9;
}

namespace {

// Batch-job profile cycles, and the range users overstate requests by
// (Observation 2).
constexpr int kMinCycles = 3;
constexpr int kMaxCycles = 8;
constexpr double kMinOverstatement = 1.3;
constexpr double kMaxOverstatement = 2.1;
constexpr SimTime kQosLatency = 150 * kMsec;  ///< LC end-to-end deadline.

PodSpec make_batch_pod(const AppMix& mix, const LoadGenConfig& cfg,
                       SimTime arrival, Rng& rng) {
  const RodiniaApp app = mix.batch_apps[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(mix.batch_apps.size()) - 1))];
  const double scale = rng.uniform(cfg.min_time_scale, cfg.max_time_scale);
  const int cycles =
      static_cast<int>(rng.uniform_int(kMinCycles, kMaxCycles));
  // Users overstate requests by a sampled factor (Observation 2).
  const double overstate = rng.uniform(kMinOverstatement, kMaxOverstatement);
  return BatchJobSpec(app)
      .time_scale(scale)
      .cycles(cycles)
      .memory_headroom(overstate)
      .cap_device_mb(cfg.device_memory_mb)
      .arrival(arrival)
      .build();
}

PodSpec make_lc_pod(const AppMix& mix, const LoadGenConfig& cfg,
                    SimTime arrival, Rng& rng) {
  const Service service = mix.lc_services[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(mix.lc_services.size()) - 1))];
  // Batch sizes are powers of two, skewed small (most user queries arrive
  // singly or in small bursts; large batches are offline re-ranking).
  static const int kBatches[] = {1, 2, 4, 8, 16, 32, 64, 128};
  const std::size_t idx = rng.weighted_index(
      {0.22, 0.18, 0.15, 0.13, 0.12, 0.10, 0.06, 0.04});
  const int batch = kBatches[idx];
  // Stock TensorFlow earmarks essentially the whole device regardless of
  // the real footprint (Fig 4's TF series) — that request is what GPU-
  // agnostic schedulers see. Knots-aware schedulers resize the container to
  // the image's observed footprint instead (§II-C2, Observation 5). The
  // qos_target floor is the §V-B per-service proportional SLO.
  return ServiceSpec(service)
      .batch(batch)
      .tf_greedy(cfg.device_memory_mb)
      .qos_target(kQosLatency)
      .arrival(arrival)
      .build();
}

/// One of the two arrival streams generate_workload draws pods on, with the
/// rng its arrival times come from (pod factories draw from their own).
struct ArrivalStream {
  AlibabaArrivals process;
  Rng rng;
};

/// The batch stream, then the LC stream.
std::array<ArrivalStream, 2> arrival_streams(const AppMix& mix,
                                             const LoadGenConfig& cfg,
                                             const Rng& rng) {
  const Rng arrival_rng = rng.fork(1);
  const double burst = arrival_burstiness(mix.cov);
  const StreamGaps gaps = mean_interarrivals(mix, cfg);
  return {{{AlibabaArrivals(gaps.batch, burst), arrival_rng.fork(1)},
           {AlibabaArrivals(gaps.lc, burst), arrival_rng.fork(2)}}};
}

}  // namespace

StreamGaps mean_interarrivals(const AppMix& mix, const LoadGenConfig& cfg) {
  const auto scaled = [](SimTime base, double rate_scale) -> SimTime {
    const double gap = static_cast<double>(base) / rate_scale;
    // Past what a SimTime holds (or not a number): no gap to truncate.
    if (!(gap < static_cast<double>(kNever))) return 0;
    return static_cast<SimTime>(gap);
  };
  return {scaled(batch_interarrival(mix.load), cfg.batch_rate_scale),
          scaled(lc_interarrival(mix.load), cfg.lc_rate_scale)};
}

double expected_pod_count(const AppMix& mix, const LoadGenConfig& cfg) {
  const auto window = static_cast<double>(cfg.duration);
  const StreamGaps gaps = mean_interarrivals(mix, cfg);
  return window / static_cast<double>(gaps.batch) +
         window / static_cast<double>(gaps.lc);
}

std::size_t generated_pod_count(const AppMix& mix, const LoadGenConfig& cfg,
                                Rng rng) {
  std::size_t pods = 0;
  for (const ArrivalStream& s : arrival_streams(mix, cfg, rng)) {
    pods += s.process.generate(cfg.duration, s.rng).size();
  }
  return pods;
}

std::vector<PodSpec> generate_workload(const AppMix& mix,
                                       const LoadGenConfig& cfg, Rng rng) {
  KNOTS_CHECK(!mix.batch_apps.empty());
  KNOTS_CHECK(!mix.lc_services.empty());
  Rng batch_rng = rng.fork(2);
  Rng lc_rng = rng.fork(3);
  const auto [batch, lc] = arrival_streams(mix, cfg, rng);

  WorkloadSpec spec;
  spec.stream(batch.process, cfg.duration, batch.rng,
              [&](SimTime t) { return make_batch_pod(mix, cfg, t, batch_rng); });
  spec.stream(lc.process, cfg.duration, lc.rng,
              [&](SimTime t) { return make_lc_pod(mix, cfg, t, lc_rng); });
  std::vector<PodSpec> pods = spec.build();
  // Multi-tenant assignment: round-robin over the (arrival-sorted, densely
  // id'd) stream, so the mapping is a pure function of the config.
  if (!cfg.tenants.empty()) {
    for (std::size_t i = 0; i < pods.size(); ++i) {
      pods[i].tenant = cfg.tenants[i % cfg.tenants.size()];
    }
  }
  return pods;
}

}  // namespace knots::workload
