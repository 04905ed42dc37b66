// Heartbeat sampler — the pyNVML surrogate.
//
// At every heartbeat it reads the five metrics off each GPU of its node and
// writes them to the node-local TimeSeriesDb as one row per GPU. Real NVML
// counters quantize and jitter; `noise_sigma` models that measurement noise,
// which is what makes sub-millisecond heartbeats *hurt* prediction accuracy
// (Fig 10b).
#pragma once

#include "core/rng.hpp"
#include "core/types.hpp"
#include "gpu/gpu_node.hpp"
#include "telemetry/timeseries_db.hpp"

namespace knots::telemetry {

class HeartbeatSampler {
 public:
  /// `db` must hold a ring for every GPU of `node`.
  HeartbeatSampler(const gpu::GpuNode& node, TimeSeriesDb& db,
                   Rng rng, double noise_sigma = 0.01)
      : node_(&node), db_(&db), rng_(rng), noise_sigma_(noise_sigma) {}

  /// Samples all GPUs of the node once at time `now`: one row per GPU.
  void sample(SimTime now);

  [[nodiscard]] double noise_sigma() const noexcept { return noise_sigma_; }

 private:
  [[nodiscard]] double jitter(double value, double scale);

  const gpu::GpuNode* node_;
  TimeSeriesDb* db_;
  Rng rng_;
  double noise_sigma_;
};

}  // namespace knots::telemetry
