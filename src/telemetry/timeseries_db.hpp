// Node-local time-series database — the InfluxDB surrogate.
//
// One instance lives on each worker node; the head-node aggregator queries it
// per heartbeat (Fig 5). Storage is one Row per GPU heartbeat — the time and
// all five §IV-A metrics — in one bounded ring per GPU: Influx retention
// policies map to a fixed per-GPU row capacity. A metric read is a column
// read over a GPU's rows; a window is binary-searched on the row times.
//
// The sampler logs the five metrics of a GPU together, so a heartbeat is one
// 48-byte row write and its time is stored once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/page_arena.hpp"
#include "core/ring_buffer.hpp"
#include "core/types.hpp"
#include "telemetry/metric.hpp"

namespace knots::telemetry {

class TimeSeriesDb {
 public:
  /// Keeps the newest `retention` rows of each of `gpu_count` GPUs with ids
  /// first_gpu, first_gpu + 1, ... (one node's GPUs). `arena` (optional,
  /// not owned, must outlive the db) backs the rings — the cluster shares
  /// one huge-page arena across all node dbs so a datacenter's rings pack
  /// contiguously instead of thrashing the TLB; null keeps the global heap.
  TimeSeriesDb(GpuId first_gpu, std::size_t gpu_count,
               std::size_t retention = 65536,
               core::PageArena* arena = nullptr);

  /// Appends one heartbeat of `gpu`, which must be one of this db's GPUs.
  /// Rows of a GPU must not go back in time: windows are binary-searched
  /// on time, so an older row than the newest would corrupt them.
  void write(GpuId gpu, const Row& row);

  /// Newest row of `gpu`; null when it never reported or is not on this
  /// node. Invalidated by the next write() to `gpu`.
  [[nodiscard]] const Row* latest_row(GpuId gpu) const noexcept;

  /// Most recent value of `metric`, or fallback when `gpu` has no rows.
  [[nodiscard]] double latest(GpuId gpu, Metric metric,
                              double fallback = 0.0) const noexcept;

  /// Time of the newest row, or -1 when `gpu` has none (what the
  /// aggregator's staleness rule compares against `now`).
  [[nodiscard]] SimTime latest_time(GpuId gpu) const noexcept;

  /// Fills `out` (cleared first, capacity reused) with `metric`'s values,
  /// oldest-first, of the rows with time >= since.
  void window_into(GpuId gpu, Metric metric, SimTime since,
                   std::vector<double>& out) const;

  /// window_into() into a fresh vector. Empty when no row qualifies.
  [[nodiscard]] std::vector<double> query_window(GpuId gpu, Metric metric,
                                                 SimTime since) const;

  /// Every retained (time, value) of `metric`, oldest-first.
  [[nodiscard]] std::vector<Sample> query_all(GpuId gpu, Metric metric) const;

  /// Rows written since construction — the aggregator's "anything new?"
  /// stamp.
  [[nodiscard]] std::uint64_t total_rows() const noexcept {
    return total_rows_;
  }

 private:
  using RowRing = RingBuffer<Row, core::ArenaAllocator<Row>>;
  using Rows = std::pair<std::span<const Row>, std::span<const Row>>;

  /// Ring index of `gpu`; >= rings_.size() when it is not on this node.
  [[nodiscard]] std::size_t index_of(GpuId gpu) const noexcept {
    // A GPU below first_gpu_ wraps to a huge index.
    return static_cast<std::size_t>(std::int64_t{gpu.value} -
                                    first_gpu_.value);
  }
  [[nodiscard]] const RowRing* find(GpuId gpu) const noexcept {
    const std::size_t i = index_of(gpu);
    return i < rings_.size() ? &rings_[i] : nullptr;
  }
  /// `ring`'s rows with time >= since, oldest-first, as at most two spans
  /// (the ring may wrap).
  [[nodiscard]] static Rows rows_since(const RowRing& ring, SimTime since);

  GpuId first_gpu_;
  std::vector<RowRing> rings_;  ///< one per GPU, in id order
  std::uint64_t total_rows_ = 0;
};

inline void TimeSeriesDb::write(GpuId gpu, const Row& row) {
  const std::size_t i = index_of(gpu);
  KNOTS_CHECK_MSG(i < rings_.size(), "heartbeat for a GPU not on this node");
  RowRing& ring = rings_[i];
  KNOTS_CHECK_MSG(ring.empty() || row.time >= ring.back().time,
                  "heartbeat older than the GPU's newest row");
  ring.push(row);
  ++total_rows_;
}

inline const Row* TimeSeriesDb::latest_row(GpuId gpu) const noexcept {
  const RowRing* ring = find(gpu);
  return ring == nullptr || ring->empty() ? nullptr : &ring->back();
}

inline double TimeSeriesDb::latest(GpuId gpu, Metric metric,
                                   double fallback) const noexcept {
  const Row* row = latest_row(gpu);
  return row == nullptr ? fallback : row->value(metric);
}

inline SimTime TimeSeriesDb::latest_time(GpuId gpu) const noexcept {
  const Row* row = latest_row(gpu);
  return row == nullptr ? SimTime{-1} : row->time;
}

}  // namespace knots::telemetry
