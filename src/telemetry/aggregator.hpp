// Head-node utilization aggregator (Fig 5).
//
// Queries each worker node's TimeSeriesDb and presents schedulers with a
// cluster-wide view: latest per-GPU utilization, windowed series (the
// time-series window `d` of §IV-C), and nodes sorted by free memory
// (Algorithm 1's Sort_by_Free_Memory).
//
// Every view is read where it lives: the node db's newest time and memory
// reading and the live device, through a slot table built at registration
// (GPU lookup is O(1)). Windows of the memory series are filled into
// caller-owned scratch buffers. The sorted-by-free-memory list is kept
// between queries and rebuilt only when a db appended rows, a device's
// parked bit or usable capacity moved (ECC retirement), or the tick
// advanced. Policies that never query (Res-Ag, Uniform) never pay for the
// sort.
//
// Not thread-safe. Each simulated cluster owns one aggregator.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"
#include "gpu/gpu_node.hpp"
#include "obs/metrics.hpp"
#include "telemetry/timeseries_db.hpp"

namespace knots::telemetry {

/// Latest known state of one GPU, as seen through telemetry.
struct GpuView {
  NodeId node;
  GpuId gpu;
  double mem_util = 0.0;       ///< Latest sampled memory utilization [0,1].
  double mem_used_mb = 0.0;
  double free_mem_mb = 0.0;    ///< usable capacity − used (telemetry view).
  bool parked = false;
  SimTime last_heartbeat = -1; ///< Time of the newest row; -1 = never.
  /// True when the GPU missed enough heartbeats to cross the staleness
  /// horizon — the values above are last-known-good, not current.
  bool stale = false;
  /// Spot capacity: the hosting node may be reclaimed by the provider.
  /// Static per node (from NodeSpec), surfaced here so schedulers can trade
  /// spot capacity for eviction risk per placement.
  bool preemptible = false;

  bool operator==(const GpuView&) const = default;
};

class UtilizationAggregator {
 public:
  /// Registers a worker node and its database. Order defines node index.
  void register_node(const gpu::GpuNode& node, const TimeSeriesDb& db);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return dbs_.size();
  }

  // -- Staleness rule (DESIGN.md §7) --
  /// A GPU is stale when now − last_heartbeat > horizon. Horizon 0
  /// (default) disables the rule; the cluster sets it to five missed
  /// heartbeats (five ticks).
  void set_staleness_horizon(SimTime horizon) noexcept { horizon_ = horizon; }
  /// Advances the aggregator's notion of "now" (called once per cluster
  /// tick); snapshots compare heartbeat ages against it.
  void begin_tick(SimTime now) noexcept { now_ = now; }
  /// Staleness of one GPU under the configured horizon.
  [[nodiscard]] bool stale(GpuId gpu) const;

  /// Latest per-GPU snapshot of the whole cluster.
  [[nodiscard]] std::vector<GpuView> snapshot() const;

  /// Fills `out` (cleared first) with the latest per-GPU snapshot without
  /// reallocating once `out` has warmed up to cluster size.
  void snapshot_into(std::vector<GpuView>& out) const;

  /// Snapshot of *active* (non-parked) GPUs sorted by free memory
  /// (descending) — Algorithm 1's node list. The returned reference stays
  /// valid until the next call. Rebuilt only when rows landed, a parked bit
  /// or a usable capacity moved, or the tick advanced since the last build.
  /// Ties resolve by registration slot, exactly like the historical
  /// stable_sort.
  [[nodiscard]] const std::vector<GpuView>& active_sorted_by_free_memory()
      const;

  /// Windowed memory series of one GPU: its readings in the rows with
  /// time >= now − window. Allocates; prefer window_into() on the tick path.
  [[nodiscard]] std::vector<double> window(GpuId gpu, SimTime now,
                                           SimTime window) const;

  /// Fills `out` (cleared first) with the windowed series, reusing its
  /// capacity. Leaves `out` empty for unknown GPUs.
  void window_into(GpuId gpu, SimTime now, SimTime window,
                   std::vector<double>& out) const;

  /// Profiles each active_sorted_by_free_memory() call (wall time, ns) into
  /// `hist`. Pass nullptr to detach. Observation only.
  void set_sort_profile(obs::Histogram* hist) noexcept {
    sort_profile_ = hist;
  }

 private:
  /// Where one GPU's view lives. Slots number GPUs in registration order.
  struct Slot {
    const gpu::GpuNode* node;
    const gpu::GpuDevice* device;
    const TimeSeriesDb* db;
  };
  /// Sort key for Algorithm 1. Keyed (free_mem desc, slot asc): slot order
  /// is registration order, so ties resolve exactly like the historical
  /// stable_sort over the unsorted snapshot did.
  struct SortKey {
    double free_mem_mb;
    std::uint32_t slot;
  };
  /// The device fields the sorted list depends on, as of the last query.
  struct LiveBits {
    double effective_mb = -1.0;  ///< -1: registered since, never diffed
    bool parked = false;
  };

  [[nodiscard]] const Slot* find_gpu(GpuId gpu) const;
  [[nodiscard]] GpuView make_view(std::size_t slot) const;
  /// Rows written to every registered db; moves whenever any db appends.
  [[nodiscard]] std::uint64_t total_rows() const;
  /// Diffs every device against live_bits_; true when a parked bit or a
  /// usable capacity moved (sort key or membership stale).
  bool diff_live_bits() const;

  std::vector<Slot> slots_;
  std::vector<const TimeSeriesDb*> dbs_;  ///< one per registered node
  std::unordered_map<std::int32_t, std::size_t> gpu_to_slot_;
  SimTime horizon_ = 0;
  SimTime now_ = 0;

  // -- Sorted list, kept between queries --
  mutable std::vector<GpuView> active_sorted_;
  mutable std::vector<SortKey> keys_;  ///< sort scratch
  mutable std::vector<LiveBits> live_bits_;  ///< per slot
  mutable std::uint64_t sorted_rows_ = 0;  ///< total_rows() at the build
  mutable SimTime sorted_now_ = -1;        ///< now_ at the build
  obs::Histogram* sort_profile_ = nullptr;
};

}  // namespace knots::telemetry
