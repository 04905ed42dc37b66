#include "telemetry/timeseries_db.hpp"

#include <algorithm>
#include <array>

namespace knots::telemetry {

namespace {

constexpr std::size_t kMetricCount = kAllMetrics.size();

/// Noise scale per column, in Metric order: the utilizations are fractions,
/// power is in watts, the bandwidths in MB/s.
constexpr std::array<double, kMetricCount> kNoiseScale = {1.0, 1.0, 10.0,
                                                          100.0, 100.0};

/// What the node monitor logs for `metric` when the device reads `raw`: one
/// normal draw from `rng` at sigma × scale added when sigma > 0, floored at
/// 0, and the utilizations clamped to [0, 1]. The scrape (memory, and every
/// column of a noiseless db) and the replay (the other four) both go through
/// here, so a replayed value has the bits an eager draw would have stored.
double reading(Metric metric, double raw, double sigma, Rng& rng) {
  double value = raw;
  if (sigma > 0.0) {
    const double scale = kNoiseScale[static_cast<std::size_t>(metric)];
    value = std::max(0.0, raw + rng.normal(0.0, sigma * scale));
  }
  if (metric == Metric::kSmUtil || metric == Metric::kMemUtil) {
    value = std::clamp(value, 0.0, 1.0);
  }
  return value;
}

}  // namespace

TimeSeriesDb::TimeSeriesDb(GpuId first_gpu, std::size_t gpu_count,
                           std::size_t retention, core::PageArena* arena)
    : first_gpu_(first_gpu), checkpoints_(core::ArenaAllocator<Rng>(arena)) {
  rings_.reserve(gpu_count);
  for (std::size_t i = 0; i < gpu_count; ++i) {
    rings_.emplace_back(retention, core::ArenaAllocator<Row>(arena));
  }
}

TimeSeriesDb::TimeSeriesDb(const gpu::GpuNode& node, Rng rng,
                           double noise_sigma, std::size_t retention,
                           core::PageArena* arena)
    : TimeSeriesDb(node.gpu_count() > 0 ? node.gpu(0).id() : GpuId{0},
                   node.gpu_count(), retention, arena) {
  node_ = &node;
  rng_ = rng;
  noise_sigma_ = noise_sigma;
  if (noise_sigma_ > 0.0) checkpoints_.resize(checkpoint_slots(retention));
}

std::size_t TimeSeriesDb::checkpoint_slots(std::size_t retention) noexcept {
  // The oldest retained row, sample samples_ − retention, was taken at most
  // ⌈retention / kCheckpointEvery⌉ copies before the newest one.
  return (retention + kCheckpointEvery - 1) / kCheckpointEvery + 1;
}

double TimeSeriesDb::footprint_bytes(double nodes, double gpus_per_node,
                                     std::size_t retention,
                                     double noise_sigma) noexcept {
  double per_node = gpus_per_node * static_cast<double>(retention) *
                    static_cast<double>(sizeof(Row));
  if (noise_sigma > 0.0) {
    per_node += static_cast<double>(checkpoint_slots(retention) * sizeof(Rng));
  }
  return nodes * per_node;
}

void TimeSeriesDb::sample(SimTime now) {
  KNOTS_CHECK_MSG(node_ != nullptr, "sample() needs a node's db");
  const bool noised = noise_sigma_ > 0.0;
  if (noised && samples_ % kCheckpointEvery == 0) {
    checkpoint_of(samples_) = rng_;
  }
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    const gpu::GpuDevice& dev = node_->gpu(i);
    const auto totals = dev.totals();
    Row row{now,
            totals.sm_util,
            totals.memory_used_mb / dev.spec().memory_mb,
            dev.power_watts(),
            totals.tx_mbps,
            totals.rx_mbps};
    if (noised) {
      // One draw per metric, in column order — sm, mem, power, tx, rx:
      // every digest depends on that order. Only memory's is evaluated
      // here; reads replay the other four.
      rng_.skip_normal();
      row.mem = reading(Metric::kMemUtil, row.mem, noise_sigma_, rng_);
      rng_.skip_normal(kMetricCount - 2);
    } else {
      row.sm = reading(Metric::kSmUtil, row.sm, noise_sigma_, rng_);
      row.mem = reading(Metric::kMemUtil, row.mem, noise_sigma_, rng_);
    }
    append(i, row);
  }
  ++samples_;
}

template <typename Emit>
void TimeSeriesDb::read_column(std::size_t ring, Metric metric, Rows rows,
                               Emit&& emit) const {
  const auto column = Row::column(metric);
  const std::size_t count = rows.first.size() + rows.second.size();
  if (!replays(metric) || count == 0) {
    for (const Row& r : rows.first) emit(r, r.*column);
    for (const Row& r : rows.second) emit(r, r.*column);
    return;
  }
  // Every sample wrote one row to every ring, so the newest `count` rows of
  // any ring are the last `count` samples. Replay from the stream copy before
  // the first of them: skip the draws of the samples, GPUs and columns that
  // precede each wanted one, then draw it.
  const std::uint64_t first = samples_ - count;
  const std::size_t per_sample = kMetricCount * rings_.size();
  Rng rng = checkpoint_of(first);
  std::size_t skip = static_cast<std::size_t>(first % kCheckpointEvery) *
                         per_sample +
                     ring * kMetricCount + static_cast<std::size_t>(metric);
  const auto replay = [&](const Row& r) {
    rng.skip_normal(skip);
    emit(r, reading(metric, r.*column, noise_sigma_, rng));
    skip = per_sample - 1;
  };
  for (const Row& r : rows.first) replay(r);
  for (const Row& r : rows.second) replay(r);
}

double TimeSeriesDb::replay_latest(std::size_t ring, Metric metric) const {
  double value = 0.0;
  read_column(ring, metric, {std::span(&rings_[ring].back(), 1), {}},
              [&value](const Row&, double v) { value = v; });
  return value;
}

TimeSeriesDb::Rows TimeSeriesDb::rows_since(const RowRing& ring,
                                            SimTime since) {
  const auto [first, second] = ring.segments();
  const auto from = [since](std::span<const Row> rows) {
    const auto it = std::ranges::partition_point(
        rows, [since](const Row& r) { return r.time < since; });
    return rows.subspan(static_cast<std::size_t>(it - rows.begin()));
  };
  // Rows are time-ordered across the wrap: when the older span ends before
  // `since`, the window starts inside the newer one.
  if (!first.empty() && first.back().time < since) return {from(second), {}};
  return {from(first), second};
}

void TimeSeriesDb::window_into(GpuId gpu, Metric metric, SimTime since,
                               std::vector<double>& out) const {
  out.clear();
  const RowRing* ring = find(gpu);
  if (ring == nullptr) return;
  const Rows rows = rows_since(*ring, since);
  out.reserve(rows.first.size() + rows.second.size());
  read_column(index_of(gpu), metric, rows,
              [&out](const Row&, double v) { out.push_back(v); });
}

std::vector<double> TimeSeriesDb::query_window(GpuId gpu, Metric metric,
                                               SimTime since) const {
  std::vector<double> out;
  window_into(gpu, metric, since, out);
  return out;
}

std::vector<Sample> TimeSeriesDb::query_all(GpuId gpu, Metric metric) const {
  std::vector<Sample> out;
  const RowRing* ring = find(gpu);
  if (ring == nullptr) return out;
  const Rows rows = ring->segments();
  out.reserve(rows.first.size() + rows.second.size());
  read_column(index_of(gpu), metric, rows,
              [&out](const Row& r, double v) { out.push_back({r.time, v}); });
  return out;
}

}  // namespace knots::telemetry
