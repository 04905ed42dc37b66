#include "telemetry/aggregator.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "obs/profile.hpp"

namespace knots::telemetry {

void UtilizationAggregator::register_node(const gpu::GpuNode& node,
                                          const TimeSeriesDb& db) {
  const std::size_t entry = nodes_.size();
  nodes_.push_back(Entry{&node, &db, latest_.size()});
  for (std::size_t i = 0; i < node.gpu_count(); ++i) {
    gpu_to_entry_.emplace(node.gpu(i).id().value, entry);
    slot_entry_.push_back(static_cast<std::uint32_t>(entry));
    slot_static_.push_back(SlotStatic{
        node.gpu(i).id(), node.id(),
        static_cast<double>(node.gpu(i).spec().memory_mb),
        node.spec().preemptible});
    latest_.push_back(Row{.time = -1});
    live_bits_.emplace_back();
    sorted_pos_.push_back(kUnlisted);
  }
  // ~0 can never equal a real row count, so the first snapshot always reads
  // through.
  entry_seen_.push_back(~std::uint64_t{0});
  // The new slots have no sort keys yet, and their rows were never pulled.
  keys_dirty_ = true;
  fresh_now_ = -1;
  // The new slots' live bits are sentinels; force the next query to diff
  // even if the registered epoch has not moved.
  live_epoch_seen_ = ~std::uint64_t{0};
}

bool UtilizationAggregator::refresh_entry(std::size_t entry_idx) const {
  const Entry& entry = nodes_[entry_idx];
  const std::uint64_t stamp = entry.db->total_rows();
  if (entry_seen_[entry_idx] == stamp) return false;
  entry_seen_[entry_idx] = stamp;
  const std::size_t end = entry.first_slot + entry.node->gpu_count();
  for (std::size_t slot = entry.first_slot; slot < end; ++slot) {
    // Rows are never dropped, so a GPU without one has never reported and
    // keeps its registration default.
    if (const Row* row = entry.db->latest_row(slot_static_[slot].gpu)) {
      latest_[slot] = *row;
    }
  }
  return true;
}

bool UtilizationAggregator::refresh_entries() const {
  bool changed = false;
  for (std::size_t e = 0; e < nodes_.size(); ++e) changed |= refresh_entry(e);
  return changed;
}

void UtilizationAggregator::refresh() const {
  // Until a query creates demand there is nothing worth prefetching. The
  // sort itself waits for the query: ticks whose scheduler round has no
  // pending pods then never pay it.
  if (!refresh_demand_) return;
  if (refresh_entries()) keys_dirty_ = true;
  fresh_now_ = now_;
}

void UtilizationAggregator::rebuild_keys() const {
  keys_.clear();
  for (std::size_t slot = 0; slot < live_bits_.size(); ++slot) {
    // Parked GPUs (as of the last live-bits diff — a flip dirties the keys,
    // forcing a rebuild with fresh bits) never appear in the active list,
    // so excluding them here keeps the sort proportional to the active
    // population.
    const LiveBits& bits = live_bits_[slot];
    if (bits.parked) continue;
    // NVML reports used/physical; free is bounded by *usable* capacity
    // (physical minus ECC-retired pages). Usable capacity comes from the
    // live-bits diff (an ECC move dirties the keys, so any keys the list is
    // built from were rebuilt after a diff) — no device deref on this path.
    const double free_mb =
        bits.effective_mb - latest_[slot].mem * slot_static_[slot].cap;
    keys_.push_back(SortKey{free_mb, static_cast<std::uint32_t>(slot)});
  }
  // Free memory descending, then registration slot ascending. The slot is
  // unique, so std::sort yields exactly the sequence the historical
  // stable_sort over the unsorted snapshot produced.
  std::sort(keys_.begin(), keys_.end(),
            [](const SortKey& a, const SortKey& b) {
              if (a.free_mem_mb != b.free_mem_mb) {
                return a.free_mem_mb > b.free_mem_mb;
              }
              return a.slot < b.slot;
            });
  keys_dirty_ = false;
}

GpuView UtilizationAggregator::make_view(std::size_t entry_idx,
                                         std::size_t gpu_idx) const {
  const Entry& entry = nodes_[entry_idx];
  const auto& dev = entry.node->gpu(gpu_idx);
  const Row& r = latest_[entry.first_slot + gpu_idx];
  const double cap = dev.spec().memory_mb;
  GpuView v;
  v.node = entry.node->id();
  v.gpu = dev.id();
  v.sm_util = r.sm;
  v.mem_util = r.mem;
  v.mem_used_mb = r.mem * cap;
  v.free_mem_mb = dev.effective_memory_mb() - v.mem_used_mb;
  v.power_watts = r.power;
  v.parked = dev.parked();
  v.residents = dev.totals().residents;
  v.last_heartbeat = r.time;
  v.stale = horizon_ > 0 && now_ - r.time > horizon_;
  v.preemptible = entry.node->spec().preemptible;
  return v;
}

GpuView UtilizationAggregator::make_view_cached(std::uint32_t slot) const {
  // The sorted list visits slots in free-sorted (effectively random) order,
  // so a per-view device deref is a scattered cache miss ×5 — at 10k nodes
  // that is the dominant query cost. Everything a view needs is already
  // resident in three dense, slot-indexed arrays: registration-time facts
  // (slot_static_), the newest rows, and the live-bits diff. The diff ran
  // under this query's epoch check, so the bits equal the live device.
  const SlotStatic& st = slot_static_[slot];
  const Row& r = latest_[slot];
  const LiveBits& bits = live_bits_[slot];
  GpuView v;
  v.node = st.node;
  v.gpu = st.gpu;
  v.sm_util = r.sm;
  v.mem_util = r.mem;
  v.mem_used_mb = r.mem * st.cap;
  v.free_mem_mb = bits.effective_mb - v.mem_used_mb;
  v.power_watts = r.power;
  v.parked = bits.parked;
  v.residents = bits.residents;
  v.last_heartbeat = r.time;
  v.stale = horizon_ > 0 && now_ - r.time > horizon_;
  v.preemptible = st.preemptible;
  return v;
}

void UtilizationAggregator::snapshot_into(std::vector<GpuView>& out) const {
  refresh_demand_ = true;
  out.clear();
  for (std::size_t e = 0; e < nodes_.size(); ++e) {
    // Telemetry values change only when rows land; everything else (parked,
    // residents, ECC-retired capacity) is read live from the device. Rows
    // consumed here must still re-sort the keys.
    if (refresh_entry(e)) keys_dirty_ = true;
    const Entry& entry = nodes_[e];
    for (std::size_t i = 0; i < entry.node->gpu_count(); ++i) {
      out.push_back(make_view(e, i));
    }
  }
}

std::vector<GpuView> UtilizationAggregator::snapshot() const {
  std::vector<GpuView> out;
  snapshot_into(out);
  return out;
}

void UtilizationAggregator::diff_live_bits() const {
  for (std::size_t slot = 0; slot < live_bits_.size(); ++slot) {
    const Entry& entry = nodes_[slot_entry_[slot]];
    const auto& dev = entry.node->gpu(slot - entry.first_slot);
    LiveBits& bits = live_bits_[slot];
    const double effective = dev.effective_memory_mb();
    const std::int32_t residents = dev.totals().residents;
    const bool parked = dev.parked();
    if (effective != bits.effective_mb || parked != bits.parked) {
      // Usable capacity feeds the sort key and the parked bit decides
      // membership, so the keys are stale, not just the views.
      bits.effective_mb = effective;
      bits.parked = parked;
      keys_dirty_ = true;
    }
    if (residents != bits.residents) {
      // Resident counts key neither the sort nor membership: patch the
      // listed view instead of rebuilding (a placement moves one GPU).
      bits.residents = residents;
      if (sorted_pos_[slot] != kUnlisted) {
        active_sorted_[sorted_pos_[slot]].residents = residents;
      }
    }
  }
}

const std::vector<GpuView>&
UtilizationAggregator::active_sorted_by_free_memory() const {
  KNOTS_PROF_SCOPE(sort_profile_);
  refresh_demand_ = true;
  // After this tick's refresh() the rows are known fresh (they land only in
  // the cluster's telemetry phase); otherwise re-check every db stamp. Only
  // refresh() sets the stamp: a standalone caller that writes between two
  // same-tick queries without a telemetry phase must still see its rows,
  // so queries themselves never claim freshness.
  if (fresh_now_ != now_ && refresh_entries()) keys_dirty_ = true;
  // Capacity moves (ECC retirement) and park/unpark flips surface here and
  // dirty the keys. With a registered epoch the O(slots) diff runs only
  // when a device actually mutated since the last query.
  if (live_epoch_ == nullptr || *live_epoch_ != live_epoch_seen_) {
    diff_live_bits();
    if (live_epoch_ != nullptr) live_epoch_seen_ = *live_epoch_;
  }
  if (keys_dirty_) {
    rebuild_keys();
  } else if (sorted_now_ == now_) {
    return active_sorted_;  // same keys, same staleness flags
  }
  active_sorted_.clear();
  std::fill(sorted_pos_.begin(), sorted_pos_.end(), kUnlisted);
  for (const SortKey& key : keys_) {
    sorted_pos_[key.slot] = static_cast<std::uint32_t>(active_sorted_.size());
    active_sorted_.push_back(make_view_cached(key.slot));
  }
  sorted_now_ = now_;
  return active_sorted_;
}

std::vector<double> UtilizationAggregator::window(GpuId gpu, Metric metric,
                                                  SimTime now,
                                                  SimTime window_len) const {
  std::vector<double> out;
  window_into(gpu, metric, now, window_len, out);
  return out;
}

void UtilizationAggregator::window_into(GpuId gpu, Metric metric, SimTime now,
                                        SimTime window_len,
                                        std::vector<double>& out) const {
  const Entry* entry = find_gpu(gpu);
  if (entry == nullptr) {
    out.clear();
    return;
  }
  entry->db->window_into(gpu, metric, now - window_len, out);
}

bool UtilizationAggregator::stale(GpuId gpu) const {
  if (horizon_ <= 0) return false;
  const Entry* entry = find_gpu(gpu);
  if (entry == nullptr) return false;
  return now_ - entry->db->latest_time(gpu) > horizon_;
}

const UtilizationAggregator::Entry* UtilizationAggregator::find_gpu(
    GpuId gpu) const {
  const auto it = gpu_to_entry_.find(gpu.value);
  return it == gpu_to_entry_.end() ? nullptr : &nodes_[it->second];
}

}  // namespace knots::telemetry
