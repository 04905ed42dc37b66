// Head-node utilization aggregator (Fig 5).
//
// Queries each worker node's TimeSeriesDb and presents schedulers with a
// cluster-wide view: latest per-GPU utilization, windowed series (the
// time-series window `d` of §IV-C), and nodes sorted by free memory
// (Algorithm 1's Sort_by_Free_Memory).
//
// The read API is tick-loop friendly: GPU lookup is O(1) via an index built
// at registration, windows are filled into caller-owned scratch buffers, and
// the sorted-by-free-memory list is served from one cached sorted run of
// {free-memory, slot} keys. The run is dirty-tracked: it re-sorts only when
// a database actually appended rows, a device's usable capacity moved (ECC
// retirement) or a parked bit flipped. The cluster pulls each tick's fresh
// rows in during its telemetry scrape (refresh). Both the row refresh and
// the sort are demand-driven: policies that never query (Res-Ag, Uniform)
// never pay for either.
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
  double sm_util = 0.0;        ///< Latest sampled SM utilization [0,1].
  double mem_util = 0.0;       ///< Latest sampled memory utilization [0,1].
  double mem_used_mb = 0.0;
  double free_mem_mb = 0.0;    ///< usable capacity − used (telemetry view).
  double power_watts = 0.0;
  bool parked = false;
  int residents = 0;
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
    return nodes_.size();
  }

  /// Copies every GPU's newest row into the row cache and marks the sorted
  /// run stale if any landed; the next sorted query at the same tick then
  /// skips re-checking the databases. Called from the cluster's telemetry
  /// scrape. No-op until the first query creates demand.
  void refresh() const;

  // -- Staleness rule (DESIGN.md §7) --
  /// A GPU is stale when now − last_heartbeat > horizon. Horizon 0
  /// (default) disables the rule; the cluster sets it to
  /// stale_after_heartbeats × tick.
  void set_staleness_horizon(SimTime horizon) noexcept { horizon_ = horizon; }
  /// Advances the aggregator's notion of "now" (called once per cluster
  /// tick, after telemetry lands); snapshots compare heartbeat ages
  /// against it.
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
  /// valid until the next call. Served from cache unless rows landed, a
  /// parked bit or a usable capacity moved, or the tick advanced since the
  /// last build; a moved resident count (every placement and completion) is
  /// patched into the cached view in place, since it keys neither order nor
  /// membership. Ties resolve by registration slot, exactly like the
  /// historical stable_sort.
  [[nodiscard]] const std::vector<GpuView>& active_sorted_by_free_memory()
      const;

  /// Windowed series for a metric of one GPU: its values in the rows with
  /// time >= now − window. Allocates; prefer window_into() on the tick path.
  [[nodiscard]] std::vector<double> window(GpuId gpu, Metric metric,
                                           SimTime now, SimTime window) const;

  /// Fills `out` (cleared first) with the windowed series, reusing its
  /// capacity. Leaves `out` empty for unknown GPUs.
  void window_into(GpuId gpu, Metric metric, SimTime now, SimTime window,
                   std::vector<double>& out) const;

  /// Profiles each active_sorted_by_free_memory() call (wall time, ns) into
  /// `hist`. Pass nullptr to detach. Observation only.
  void set_sort_profile(obs::Histogram* hist) noexcept {
    sort_profile_ = hist;
  }

  /// Registers a device-mutation epoch: the owner bumps `*epoch` whenever
  /// any registered device's parked/residents/usable-capacity state changes
  /// (placement, completion, park, ECC retirement). While the epoch is
  /// unchanged, queries skip the O(slots) live-bits diff entirely — at
  /// datacenter scale that scan dominates the query cost. Without an epoch
  /// (standalone use) every query diffs, which is always correct.
  void set_live_epoch(const std::uint64_t* epoch) noexcept {
    live_epoch_ = epoch;
  }

 private:
  struct Entry {
    const gpu::GpuNode* node;
    const TimeSeriesDb* db;
    std::size_t first_slot;  ///< Index of this node's first GPU slot.
  };
  /// Sort key for Algorithm 1. Keyed (free_mem desc, slot asc): slot order
  /// is registration order, so ties resolve exactly like the historical
  /// stable_sort over the unsorted snapshot did.
  struct SortKey {
    double free_mem_mb;
    std::uint32_t slot;
  };
  /// Live per-slot device fields the views depend on but no database stamp
  /// tracks. A cheap pre-sort scan diffs them against the device.
  struct LiveBits {
    double effective_mb = -1.0;
    std::int32_t residents = -1;
    bool parked = false;
  };

  /// Immutable per-slot facts captured at registration, so the sorted
  /// list's random-order (free-sorted) emission never chases node/device
  /// pointers.
  struct SlotStatic {
    GpuId gpu;
    NodeId node;
    double cap = 0.0;  ///< physical memory_mb (spec; ECC-independent)
    bool preemptible = false;  ///< hosting node is spot capacity (spec)
  };

  [[nodiscard]] const Entry* find_gpu(GpuId gpu) const;
  /// Copies each GPU's newest row into latest_ when the node's db wrote rows
  /// since the last refresh; true if it did.
  bool refresh_entry(std::size_t entry_idx) const;
  /// refresh_entry over every node; true if any wrote rows.
  bool refresh_entries() const;
  void rebuild_keys() const;
  [[nodiscard]] GpuView make_view(std::size_t entry_idx,
                                  std::size_t gpu_idx) const;
  /// make_view served entirely from slot_static_/latest_/live_bits_.
  /// Valid only after the live-bits diff of the current query (the sorted
  /// path) — snapshot paths, which never diff, keep reading devices live.
  [[nodiscard]] GpuView make_view_cached(std::uint32_t slot) const;
  /// Diffs parked/residents/capacity against the last sorted query; marks
  /// the keys dirty when a sort key or membership went stale and patches
  /// moved resident counts into the sorted list.
  void diff_live_bits() const;

  std::vector<Entry> nodes_;
  std::unordered_map<std::int32_t, std::size_t> gpu_to_entry_;
  /// Owning entry index per GPU slot (inverse of Entry::first_slot spans).
  std::vector<std::uint32_t> slot_entry_;
  std::vector<SlotStatic> slot_static_;  ///< per GPU slot
  SimTime horizon_ = 0;
  SimTime now_ = 0;

  mutable std::vector<std::uint64_t> entry_seen_;  ///< db stamp per entry
  /// Newest row per GPU slot (time -1 = never reported), refreshed only when
  /// the node's db wrote rows. Schedulers snapshot once per pending pod but
  /// telemetry lands once per tick, and the sorted list reads slots in
  /// random order: a dense copy beats chasing each node's db.
  mutable std::vector<Row> latest_;

  // -- Sort state --
  /// Sorted run over the *unparked* GPU slots (as of the last live-bits
  /// diff — a park/unpark flip dirties it, so at datacenter scale the
  /// per-tick sort covers only the active population, not the parked long
  /// tail).
  mutable std::vector<SortKey> keys_;
  /// Keys are out of date (registration, capacity or parked move, or rows
  /// landed since the last sort).
  mutable bool keys_dirty_ = true;
  /// Tick at which refresh() last pulled every db's rows. Rows land only in
  /// the cluster's telemetry phase, so a query at the same tick can skip
  /// re-checking every entry's db stamp.
  mutable SimTime fresh_now_ = -1;
  mutable std::vector<LiveBits> live_bits_;         ///< per GPU slot
  /// Sticky demand flag: set by the first query, read by refresh() so
  /// non-querying policies never pay refresh/sort costs.
  mutable bool refresh_demand_ = false;
  // Sorted-list cache: the views built from the current keys, valid while
  // the keys are clean and the tick's `now` (staleness flags) is unchanged;
  // resident counts are patched in place.
  mutable std::vector<GpuView> active_sorted_;
  /// Index of each slot's view in active_sorted_ (kUnlisted when parked),
  /// so a resident-count move patches one view instead of rebuilding.
  static constexpr std::uint32_t kUnlisted = ~std::uint32_t{0};
  mutable std::vector<std::uint32_t> sorted_pos_;
  mutable SimTime sorted_now_ = -1;
  /// Device-mutation epoch (see set_live_epoch); null = diff every query.
  const std::uint64_t* live_epoch_ = nullptr;
  mutable std::uint64_t live_epoch_seen_ = ~std::uint64_t{0};
  obs::Histogram* sort_profile_ = nullptr;
};

}  // namespace knots::telemetry
