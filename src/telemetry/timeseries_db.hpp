// Node-local time-series database — the InfluxDB surrogate — and the
// heartbeat sampler that fills it, the pyNVML surrogate.
//
// One instance lives on each worker node; the head-node aggregator queries it
// per heartbeat (Fig 5). Storage is one Row per GPU heartbeat — the time and
// all five §IV-A metrics — in one bounded ring per GPU: Influx retention
// policies map to a fixed per-GPU row capacity. A metric read is a column
// read over a GPU's rows; a window is binary-searched on the row times.
//
// sample() reads the five metrics off every GPU of the node at once. Real
// NVML counters quantize and jitter; `noise_sigma` models that measurement
// noise, which is what makes sub-millisecond heartbeats *hurt* prediction
// accuracy (Fig 10b). The noise comes from the db's own stream, one normal
// draw per metric in column order, but only the memory draw is evaluated when
// the row is written — memory is the one column the schedulers read every
// tick. The row keeps the raw SM, power, tx and rx values, and a read of one
// of those columns replays its draws from a copy of the stream taken every
// kCheckpointEvery samples, so every read returns the bits an eager draw
// would have stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/page_arena.hpp"
#include "core/ring_buffer.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"
#include "gpu/gpu_node.hpp"
#include "telemetry/metric.hpp"

namespace knots::telemetry {

class TimeSeriesDb {
 public:
  /// Samples between two copies of the noise stream.
  static constexpr std::uint64_t kCheckpointEvery = 64;

  /// A store filled by write(): keeps the newest `retention` rows of each of
  /// `gpu_count` GPUs with ids first_gpu, first_gpu + 1, ... (one node's
  /// GPUs). `arena` (optional, not owned, must outlive the db) backs the
  /// rings and the noise checkpoints — the cluster shares one huge-page
  /// arena across all node dbs so a datacenter's rings pack contiguously
  /// instead of thrashing the TLB; null keeps the global heap.
  TimeSeriesDb(GpuId first_gpu, std::size_t gpu_count,
               std::size_t retention = 65536,
               core::PageArena* arena = nullptr);

  /// `node`'s store, filled by sample(): one ring per GPU of `node` (which
  /// must outlive the db), noised from `rng` at `noise_sigma` — exact
  /// readings, no draws and no checkpoints when it is <= 0.
  TimeSeriesDb(const gpu::GpuNode& node, Rng rng, double noise_sigma,
               std::size_t retention = 65536,
               core::PageArena* arena = nullptr);

  /// Bytes `nodes` node stores of `gpus_per_node` GPUs each allocate at
  /// `retention`: every GPU's ring of rows plus, when noised, each node's
  /// ⌈retention / kCheckpointEvery⌉ + 1 stream copies. A double, so a fleet
  /// no host could hold reads as huge instead of wrapping.
  [[nodiscard]] static double footprint_bytes(double nodes,
                                              double gpus_per_node,
                                              std::size_t retention,
                                              double noise_sigma) noexcept;

  /// Samples every GPU of the node once at time `now`: one row per GPU.
  void sample(SimTime now);

  /// Appends one heartbeat of `gpu`, which must be one of this db's GPUs.
  /// Rows of a GPU must not go back in time: windows are binary-searched
  /// on time, so an older row than the newest would corrupt them. A noised
  /// db takes rows from sample() only — its reads count rows as samples.
  void write(GpuId gpu, const Row& row);

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
  /// Newest row of `gpu`; null when it never reported or is not on this
  /// node. Its noised columns hold raw values.
  [[nodiscard]] const Row* latest_row(GpuId gpu) const noexcept;
  /// True when `metric`'s column holds raw values that a read must noise.
  [[nodiscard]] bool replays(Metric metric) const noexcept {
    return noise_sigma_ > 0.0 && metric != Metric::kMemUtil;
  }
  /// `ring`'s rows with time >= since, oldest-first, as at most two spans
  /// (the ring may wrap).
  [[nodiscard]] static Rows rows_since(const RowRing& ring, SimTime since);
  /// Calls emit(row, value) with `metric`'s reading of each of `rows`, the
  /// newest rows of ring `ring` in order.
  template <typename Emit>
  void read_column(std::size_t ring, Metric metric, Rows rows,
                   Emit&& emit) const;
  /// `metric`'s reading of ring `ring`'s newest row, replayed.
  [[nodiscard]] double replay_latest(std::size_t ring, Metric metric) const;
  /// Stream copies a noised db of `retention` rows per GPU keeps.
  [[nodiscard]] static std::size_t checkpoint_slots(
      std::size_t retention) noexcept;
  /// Pushes one row onto ring `i`, after the time-order check.
  void append(std::size_t i, const Row& row);
  /// The stream as it stood before sample k − k % kCheckpointEvery.
  [[nodiscard]] Rng& checkpoint_of(std::uint64_t k) noexcept {
    return checkpoints_[(k / kCheckpointEvery) % checkpoints_.size()];
  }
  [[nodiscard]] const Rng& checkpoint_of(std::uint64_t k) const noexcept {
    return checkpoints_[(k / kCheckpointEvery) % checkpoints_.size()];
  }

  GpuId first_gpu_;
  std::vector<RowRing> rings_;  ///< one per GPU, in id order
  std::uint64_t total_rows_ = 0;

  // -- The sampled node and its noise stream --
  const gpu::GpuNode* node_ = nullptr;  ///< null: filled by write() only
  Rng rng_;
  double noise_sigma_ = 0.0;
  /// sample() calls so far. Each writes one row to every ring, so row j of
  /// a ring (0 = oldest) is sample samples_ − size + j.
  std::uint64_t samples_ = 0;
  /// rng_ as it stood before each kCheckpointEvery-th sample, in a ring
  /// long enough to reach back past the oldest retained row. Empty when the
  /// db draws no noise. Carved from the rings' arena: on the heap, a
  /// datacenter's copies would sit between the node dbs and spread them
  /// over more cache lines for every per-db loop.
  std::vector<Rng, core::ArenaAllocator<Rng>> checkpoints_;
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
  KNOTS_CHECK_MSG(noise_sigma_ <= 0.0,
                  "a noised db takes its rows from sample() only");
  append(i, row);
}

inline const Row* TimeSeriesDb::latest_row(GpuId gpu) const noexcept {
  const RowRing* ring = find(gpu);
  return ring == nullptr || ring->empty() ? nullptr : &ring->back();
}

inline double TimeSeriesDb::latest(GpuId gpu, Metric metric,
                                   double fallback) const noexcept {
  const Row* row = latest_row(gpu);
  if (row == nullptr) return fallback;
  return replays(metric) ? replay_latest(index_of(gpu), metric)
                         : row->value(metric);
}

inline SimTime TimeSeriesDb::latest_time(GpuId gpu) const noexcept {
  const Row* row = latest_row(gpu);
  return row == nullptr ? SimTime{-1} : row->time;
}

}  // namespace knots::telemetry
