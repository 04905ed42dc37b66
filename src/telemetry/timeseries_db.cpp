#include "telemetry/timeseries_db.hpp"

#include <algorithm>

namespace knots::telemetry {

TimeSeriesDb::TimeSeriesDb(GpuId first_gpu, std::size_t gpu_count,
                           std::size_t retention, core::PageArena* arena)
    : first_gpu_(first_gpu) {
  rings_.reserve(gpu_count);
  for (std::size_t i = 0; i < gpu_count; ++i) {
    rings_.emplace_back(retention, core::ArenaAllocator<Row>(arena));
  }
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
  const auto [first, second] = rows_since(*ring, since);
  const auto column = Row::column(metric);
  out.reserve(first.size() + second.size());
  for (const Row& r : first) out.push_back(r.*column);
  for (const Row& r : second) out.push_back(r.*column);
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
  const auto [first, second] = ring->segments();
  const auto column = Row::column(metric);
  out.reserve(first.size() + second.size());
  for (const Row& r : first) out.push_back({r.time, r.*column});
  for (const Row& r : second) out.push_back({r.time, r.*column});
  return out;
}

}  // namespace knots::telemetry
