#include "telemetry/aggregator.hpp"

#include <algorithm>

#include "obs/profile.hpp"

namespace knots::telemetry {

void UtilizationAggregator::register_node(const gpu::GpuNode& node,
                                          const TimeSeriesDb& db) {
  dbs_.push_back(&db);
  for (std::size_t i = 0; i < node.gpu_count(); ++i) {
    gpu_to_slot_.emplace(node.gpu(i).id().value, slots_.size());
    slots_.push_back(Slot{&node, &node.gpu(i), &db});
    // Default bits never match a device, so the next sorted query sees the
    // new slot as moved and rebuilds with it.
    live_bits_.emplace_back();
  }
}

GpuView UtilizationAggregator::make_view(std::size_t slot) const {
  const Slot& s = slots_[slot];
  const gpu::GpuDevice& dev = *s.device;
  // Rows are never dropped, so a GPU without one has never reported: it
  // reads as no memory used, heard from at time -1.
  const SimTime heard = s.db->latest_time(dev.id());
  const double mem = s.db->latest(dev.id());
  GpuView v;
  v.node = s.node->id();
  v.gpu = dev.id();
  v.mem_util = mem;
  v.mem_used_mb = mem * dev.spec().memory_mb;
  // NVML reports used/physical; free is bounded by *usable* capacity
  // (physical minus ECC-retired pages).
  v.free_mem_mb = dev.effective_memory_mb() - v.mem_used_mb;
  v.parked = dev.parked();
  v.last_heartbeat = heard;
  v.stale = horizon_ > 0 && now_ - heard > horizon_;
  v.preemptible = s.node->spec().preemptible;
  return v;
}

void UtilizationAggregator::snapshot_into(std::vector<GpuView>& out) const {
  out.clear();
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    out.push_back(make_view(slot));
  }
}

std::vector<GpuView> UtilizationAggregator::snapshot() const {
  std::vector<GpuView> out;
  snapshot_into(out);
  return out;
}

std::uint64_t UtilizationAggregator::total_rows() const {
  std::uint64_t rows = 0;
  for (const TimeSeriesDb* db : dbs_) rows += db->total_rows();
  return rows;
}

bool UtilizationAggregator::diff_live_bits() const {
  bool moved = false;
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    const gpu::GpuDevice& dev = *slots_[slot].device;
    LiveBits& bits = live_bits_[slot];
    const double effective = dev.effective_memory_mb();
    const bool parked = dev.parked();
    if (effective != bits.effective_mb || parked != bits.parked) {
      // Usable capacity feeds the sort key and the parked bit decides
      // membership.
      bits.effective_mb = effective;
      bits.parked = parked;
      moved = true;
    }
  }
  return moved;
}

const std::vector<GpuView>&
UtilizationAggregator::active_sorted_by_free_memory() const {
  KNOTS_PROF_SCOPE(sort_profile_);
  const bool devices_moved = diff_live_bits();
  const std::uint64_t rows = total_rows();
  if (!devices_moved && rows == sorted_rows_ && sorted_now_ == now_) {
    return active_sorted_;  // same rows, devices and staleness flags
  }
  sorted_rows_ = rows;
  sorted_now_ = now_;
  keys_.clear();
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    // Parked GPUs never appear in the active list; excluding them here keeps
    // the sort proportional to the active population.
    if (live_bits_[slot].parked) continue;
    keys_.push_back(SortKey{make_view(slot).free_mem_mb,
                            static_cast<std::uint32_t>(slot)});
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
  active_sorted_.clear();
  for (const SortKey& key : keys_) {
    active_sorted_.push_back(make_view(key.slot));
  }
  return active_sorted_;
}

std::vector<double> UtilizationAggregator::window(GpuId gpu, SimTime now,
                                                  SimTime window_len) const {
  std::vector<double> out;
  window_into(gpu, now, window_len, out);
  return out;
}

void UtilizationAggregator::window_into(GpuId gpu, SimTime now,
                                        SimTime window_len,
                                        std::vector<double>& out) const {
  const Slot* slot = find_gpu(gpu);
  if (slot == nullptr) {
    out.clear();
    return;
  }
  slot->db->window_into(gpu, now - window_len, out);
}

bool UtilizationAggregator::stale(GpuId gpu) const {
  if (horizon_ <= 0) return false;
  const Slot* slot = find_gpu(gpu);
  if (slot == nullptr) return false;
  return now_ - slot->db->latest_time(gpu) > horizon_;
}

const UtilizationAggregator::Slot* UtilizationAggregator::find_gpu(
    GpuId gpu) const {
  const auto it = gpu_to_slot_.find(gpu.value);
  return it == gpu_to_slot_.end() ? nullptr : &slots_[it->second];
}

}  // namespace knots::telemetry
