#include "telemetry/timeseries_db.hpp"

#include <algorithm>
#include <span>
#include <utility>

namespace knots::telemetry {

namespace {

using Rows = std::pair<std::span<const Row>, std::span<const Row>>;

/// `segments`' rows with time >= since, oldest-first, as at most two spans
/// (a ring's rows may wrap).
Rows rows_since(Rows segments, SimTime since) {
  const auto [first, second] = segments;
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

}  // namespace

TimeSeriesDb::TimeSeriesDb(GpuId first_gpu, std::size_t gpu_count,
                           std::size_t retention, core::PageArena* arena)
    : first_gpu_(first_gpu) {
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
}

double TimeSeriesDb::footprint_bytes(double nodes, double gpus_per_node,
                                     std::size_t retention) noexcept {
  return nodes * gpus_per_node * static_cast<double>(retention) *
         static_cast<double>(sizeof(Row));
}

void TimeSeriesDb::sample(SimTime now) {
  KNOTS_CHECK_MSG(node_ != nullptr, "sample() needs a node's db");
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    const gpu::GpuDevice& dev = node_->gpu(i);
    double mem = dev.totals().memory_used_mb / dev.spec().memory_mb;
    if (noise_sigma_ > 0.0) {
      // One normal per §IV-A metric, in the order sm, mem, power, tx, rx:
      // every digest depends on it. Only memory's is evaluated, floored at 0.
      rng_.skip_normal();
      mem = std::max(0.0, mem + rng_.normal(0.0, noise_sigma_));
      rng_.skip_normal(3);
    }
    append(i, Row{now, std::clamp(mem, 0.0, 1.0)});
  }
}

void TimeSeriesDb::window_into(GpuId gpu, SimTime since,
                               std::vector<double>& out) const {
  out.clear();
  const RowRing* ring = find(gpu);
  if (ring == nullptr) return;
  const auto [first, second] = rows_since(ring->segments(), since);
  out.reserve(first.size() + second.size());
  for (const Row& r : first) out.push_back(r.mem);
  for (const Row& r : second) out.push_back(r.mem);
}

std::vector<double> TimeSeriesDb::query_window(GpuId gpu,
                                               SimTime since) const {
  std::vector<double> out;
  window_into(gpu, since, out);
  return out;
}

std::vector<Row> TimeSeriesDb::query_all(GpuId gpu) const {
  std::vector<Row> out;
  const RowRing* ring = find(gpu);
  if (ring == nullptr) return out;
  const auto [first, second] = ring->segments();
  out.reserve(first.size() + second.size());
  out.insert(out.end(), first.begin(), first.end());
  out.insert(out.end(), second.begin(), second.end());
  return out;
}

}  // namespace knots::telemetry
