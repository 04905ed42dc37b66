// Node-local time-series database — the InfluxDB surrogate — and the
// heartbeat sampler that fills it, the pyNVML surrogate.
//
// One instance lives on each worker node; the head-node aggregator queries it
// per heartbeat (Fig 5). Knots logs five GPU metrics per heartbeat (§IV-A),
// but its policies act on memory alone: Algorithm 1 sorts by free memory and
// PP forecasts memory utilization (Eq. 3). So storage is one Row per GPU
// heartbeat — its time and memory reading — in one bounded ring per GPU:
// Influx retention policies map to a fixed per-GPU row capacity. A window is
// binary-searched on the row times.
//
// sample() reads memory off every GPU of the node at once. Real NVML
// counters quantize and jitter; `noise_sigma` models that measurement noise,
// which is what makes sub-millisecond heartbeats *hurt* prediction accuracy
// (Fig 10b). The noise comes from the db's own stream, which a heartbeat
// advances as if it drew one normal per §IV-A metric, in the order sm, mem,
// power, tx, rx: it skips the SM draw, draws memory's and skips the other
// three. Every noised reading, and so every digest, depends on that order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/check.hpp"
#include "core/page_arena.hpp"
#include "core/ring_buffer.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"
#include "gpu/gpu_node.hpp"

namespace knots::telemetry {

/// One heartbeat of one GPU: when it was taken and the logged memory
/// utilization, a [0,1] fraction of device memory (noised when the db is).
struct Row {
  SimTime time = 0;
  double mem = 0.0;
};
static_assert(sizeof(Row) == 16, "a heartbeat row is a time and a reading");

class TimeSeriesDb {
 public:
  /// A store filled by write(): keeps the newest `retention` rows of each of
  /// `gpu_count` GPUs with ids first_gpu, first_gpu + 1, ... (one node's
  /// GPUs). `arena` (optional, not owned, must outlive the db) backs the
  /// rings — the cluster shares one huge-page arena across all node dbs so a
  /// datacenter's rings pack contiguously instead of thrashing the TLB; null
  /// keeps the global heap.
  TimeSeriesDb(GpuId first_gpu, std::size_t gpu_count,
               std::size_t retention = 65536,
               core::PageArena* arena = nullptr);

  /// `node`'s store, filled by sample(): one ring per GPU of `node` (which
  /// must outlive the db), noised from `rng` at `noise_sigma` — exact
  /// readings and no draws when it is <= 0.
  TimeSeriesDb(const gpu::GpuNode& node, Rng rng, double noise_sigma,
               std::size_t retention = 65536,
               core::PageArena* arena = nullptr);

  /// Bytes `nodes` node stores of `gpus_per_node` GPUs each allocate at
  /// `retention`: one Row per GPU per retained heartbeat. A double, so a
  /// fleet no host could hold reads as huge instead of wrapping.
  [[nodiscard]] static double footprint_bytes(double nodes,
                                              double gpus_per_node,
                                              std::size_t retention) noexcept;

  /// Samples every GPU of the node once at time `now`: one row per GPU.
  void sample(SimTime now);

  /// Appends one heartbeat of `gpu`, which must be one of this db's GPUs.
  /// Rows of a GPU must not go back in time: windows are binary-searched
  /// on time, so an older row than the newest would corrupt them.
  void write(GpuId gpu, const Row& row);

  /// Most recent memory reading, or fallback when `gpu` has no rows.
  [[nodiscard]] double latest(GpuId gpu, double fallback = 0.0) const noexcept;

  /// Time of the newest row, or -1 when `gpu` has none (what the
  /// aggregator's staleness rule compares against `now`).
  [[nodiscard]] SimTime latest_time(GpuId gpu) const noexcept;

  /// Fills `out` (cleared first, capacity reused) with the memory readings,
  /// oldest-first, of the rows with time >= since.
  void window_into(GpuId gpu, SimTime since, std::vector<double>& out) const;

  /// window_into() into a fresh vector. Empty when no row qualifies.
  [[nodiscard]] std::vector<double> query_window(GpuId gpu,
                                                 SimTime since) const;

  /// Every retained row of `gpu`, oldest-first.
  [[nodiscard]] std::vector<Row> query_all(GpuId gpu) const;

  /// Rows written since construction — the aggregator's "anything new?"
  /// stamp.
  [[nodiscard]] std::uint64_t total_rows() const noexcept {
    return total_rows_;
  }

 private:
  using RowRing = RingBuffer<Row, core::ArenaAllocator<Row>>;

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
  /// Newest row of `gpu`; null when it never reported or is not on this
  /// node.
  [[nodiscard]] const Row* latest_row(GpuId gpu) const noexcept;
  /// Pushes one row onto ring `i`, after the time-order check.
  void append(std::size_t i, const Row& row);

  GpuId first_gpu_;
  std::vector<RowRing> rings_;  ///< one per GPU, in id order
  std::uint64_t total_rows_ = 0;

  // -- The sampled node and its noise stream --
  const gpu::GpuNode* node_ = nullptr;  ///< null: filled by write() only
  Rng rng_;
  double noise_sigma_ = 0.0;
};

inline void TimeSeriesDb::append(std::size_t i, const Row& row) {
  RowRing& ring = rings_[i];
  KNOTS_CHECK_MSG(ring.empty() || row.time >= ring.back().time,
                  "heartbeat older than the GPU's newest row");
  ring.push(row);
  ++total_rows_;
}

inline void TimeSeriesDb::write(GpuId gpu, const Row& row) {
  const std::size_t i = index_of(gpu);
  KNOTS_CHECK_MSG(i < rings_.size(), "heartbeat for a GPU not on this node");
  append(i, row);
}

inline const Row* TimeSeriesDb::latest_row(GpuId gpu) const noexcept {
  const RowRing* ring = find(gpu);
  return ring == nullptr || ring->empty() ? nullptr : &ring->back();
}

inline double TimeSeriesDb::latest(GpuId gpu, double fallback) const noexcept {
  const Row* row = latest_row(gpu);
  return row == nullptr ? fallback : row->mem;
}

inline SimTime TimeSeriesDb::latest_time(GpuId gpu) const noexcept {
  const Row* row = latest_row(gpu);
  return row == nullptr ? SimTime{-1} : row->time;
}

}  // namespace knots::telemetry
