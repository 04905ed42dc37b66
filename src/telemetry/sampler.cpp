#include "telemetry/sampler.hpp"

#include <algorithm>

namespace knots::telemetry {

double HeartbeatSampler::jitter(double value, double scale) {
  if (noise_sigma_ <= 0.0) return value;
  return std::max(0.0, value + rng_.normal(0.0, noise_sigma_ * scale));
}

void HeartbeatSampler::sample(SimTime now) {
  for (std::size_t i = 0; i < node_->gpu_count(); ++i) {
    const auto& dev = node_->gpu(i);
    const auto totals = dev.totals();
    const double cap = dev.spec().memory_mb;
    // One noise draw per metric, in column order: the draw order is part of
    // every digest.
    Row row;
    row.time = now;
    row.sm = std::clamp(jitter(totals.sm_util, 1.0), 0.0, 1.0);
    row.mem = std::clamp(jitter(totals.memory_used_mb / cap, 1.0), 0.0, 1.0);
    row.power = jitter(dev.power_watts(), 10.0);
    row.tx = jitter(totals.tx_mbps, 100.0);
    row.rx = jitter(totals.rx_mbps, 100.0);
    db_->write(dev.id(), row);
  }
}

}  // namespace knots::telemetry
