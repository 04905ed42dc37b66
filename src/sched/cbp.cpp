#include "sched/cbp.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/percentile.hpp"
#include "obs/trace.hpp"

namespace knots::sched {

namespace {
constexpr double kResizeHeadroom = 1.05;
// Utilization-aware admission: projected aggregate SM demand caps.
constexpr double kSmCapBatch = 1.00;
constexpr double kSmCapLc = 0.90;
// First run of an unknown image: assume this SM demand.
constexpr double kUnknownSmEstimate = 0.50;
}  // namespace

bool CbpScheduler::forecast_override(const cluster::Cluster&,
                                     const telemetry::GpuView&,
                                     double) const {
  return false;
}

double CbpScheduler::batch_target_mb(
    ImageId image, const cluster::ImageProfile& prof) const {
  const auto i = static_cast<std::size_t>(image.value);
  if (targets_.size() <= i) targets_.resize(i + 1);
  ImageTarget& cached = targets_[i];
  if (cached.runs != prof.observed_runs) {
    cached.target_mb = std::max(
        kMinProvisionMb,
        percentile_sorted(prof.memory_signature_sorted,
                          params_.provision_percentile) *
            kResizeHeadroom);
    cached.runs = prof.observed_runs;
  }
  return cached.target_mb;
}

double CbpScheduler::sizing_mb(const cluster::Cluster& cl,
                               const cluster::Pod& pod) const {
  const auto* prof = cl.profiles().find(pod.image());
  if (prof == nullptr || prof->memory_signature.empty()) {
    // First run of this image: trust the (overstated) user request — for
    // inference pods that is TensorFlow's whole-device earmark, so the
    // first query of a service effectively gets a private GPU.
    return pod.spec().requested_mb;
  }
  // Knots resize: provision for the observed footprint percentile, not the
  // declared claim. Latency-critical pods get their peak (their footprint
  // is flat and small; under-provisioning them buys nothing).
  if (!pod.latency_critical()) return batch_target_mb(pod.image(), *prof);
  const double peak = percentile_sorted(prof->memory_signature_sorted, 100.0);
  return std::max(kMinProvisionMb, peak * kResizeHeadroom);
}

double CbpScheduler::sm_estimate(const cluster::Cluster& cl,
                                 const cluster::Pod& pod) const {
  const auto* prof = cl.profiles().find(pod.image());
  if (prof == nullptr) return kUnknownSmEstimate;
  return prof->mean_sm;
}

double CbpScheduler::peak_sm_estimate(const cluster::Cluster& cl,
                                      const cluster::Pod& pod) const {
  const auto* prof = cl.profiles().find(pod.image());
  if (prof == nullptr) return 1.0;
  return prof->peak_sm;
}

bool CbpScheduler::lc_peak_safe(const cluster::Cluster& cl,
                                const cluster::Pod& pod,
                                const gpu::GpuDevice& dev) const {
  double peak_sum = sm_estimate(cl, pod);
  double batch_peak_sum = 0;
  int contexts = 1;
  for (PodId resident : dev.residents()) {
    const auto& res = cl.pod(resident);
    const double peak = peak_sm_estimate(cl, res);
    peak_sum += peak;
    if (!res.latency_critical()) batch_peak_sum += peak;
    ++contexts;
  }
  const double tax =
      1.0 + dev.spec().context_switch_tax * static_cast<double>(contexts - 1);
  // Worst case: every resident at its profiled peak, plus non-preemptive
  // blocking behind the co-resident batch kernels.
  const double worst_slowdown =
      std::max(1.0, peak_sum) * tax *
      (1.0 + cluster::kLcBlockingTax * batch_peak_sum);
  // Required: queue-free compute time under the worst slowdown fits the
  // deadline with start latency and safety margin.
  const auto& spec = pod.spec();
  const double compute_s = to_seconds(spec.profile.total_duration());
  const double budget_s =
      to_seconds(spec.qos_latency) - to_seconds(cluster::kWarmStart);
  return compute_s * worst_slowdown * 1.15 <= budget_s;
}

bool CbpScheduler::correlation_ok(const cluster::Cluster& cl,
                                  const cluster::Pod& pod,
                                  const gpu::GpuDevice& dev) const {
  for (PodId resident : dev.residents()) {
    const auto corr = cl.profiles().memory_correlation(
        pod.image(), cl.pod(resident).image());
    if (corr.has_value() && *corr > params_.correlation_threshold) {
      return false;
    }
  }
  return true;
}

void CbpScheduler::harvest(cluster::Cluster& cl) {
  // Only occupied devices can host a resize candidate: walk the cluster's
  // occupancy bitmap (set bits ascending — the same device order as the
  // historical dense scan, which visited empty devices for nothing).
  const auto& occupied = cl.occupied_gpu_bits();
  for (std::size_t w = 0; w < occupied.size(); ++w) {
    std::uint64_t bits = occupied[w];
    while (bits != 0) {
      const auto g = static_cast<std::int32_t>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      auto& dev = cl.device(GpuId{g});
      for (PodId id : dev.residents()) {
        const auto& pod = cl.pod(id);
        if (pod.latency_critical()) continue;
        if (pod.state() != cluster::PodState::kRunning) continue;
        const auto* prof = cl.profiles().find(pod.image());
        if (prof == nullptr || prof->memory_signature.empty()) continue;
        const double target = batch_target_mb(pod.image(), *prof);
        if (pod.provisioned_mb() > target * kResizeHeadroom) {
          // May fail when current usage sits above the target; retried on a
          // later tick once the pod's demand recedes.
          (void)cl.resize_pod(id, target);
        }
      }
    }
  }
}

void CbpScheduler::on_schedule(cluster::SchedulingContext& ctx) {
  auto& cl = *ctx.cluster;
  harvest(cl);
  if (ctx.pending->empty()) return;

  // Schedule order: latency-critical first (SLO-awareness), then batch pods
  // first-fit-decreasing by their resized footprint (Algorithm 1). Sizes
  // are computed once up front — the comparator would otherwise re-derive
  // them O(n log n) times.
  std::vector<PodId> lc_pods;
  sized_batch_.clear();
  for (PodId id : *ctx.pending) {
    const auto& pod = cl.pod(id);
    if (pod.latency_critical()) {
      lc_pods.push_back(id);
    } else {
      sized_batch_.emplace_back(sizing_mb(cl, pod), id);
    }
  }
  std::stable_sort(sized_batch_.begin(), sized_batch_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<PodId> order = std::move(lc_pods);
  order.reserve(order.size() + sized_batch_.size());
  for (const auto& [size, id] : sized_batch_) order.push_back(id);

  // Spot preference only matters on clusters that actually have spot nodes;
  // elsewhere the single unfiltered walk below is byte-for-byte the
  // historical behaviour.
  const bool spot = cl.has_preemptible_nodes();

  for (PodId id : order) {
    const auto& pod = cl.pod(id);
    const double size = sizing_mb(cl, pod);
    const double sm = sm_estimate(cl, pod);
    const double sm_cap = pod.latency_critical() ? kSmCapLc : kSmCapBatch;

    // Per-tenant quota pre-check: skip pods whose tenant is over budget
    // rather than burning a full node walk on a placement the cluster will
    // refuse anyway (place() re-checks; this is only an efficiency hint).
    if (ctx.tenants != nullptr && !ctx.tenants->admits(pod.spec().tenant, size)) {
      cl.note_quota_rejection(pod.spec().tenant);
      if (ctx.trace != nullptr) {
        ctx.trace->record(ctx.now, obs::EventKind::kDecision, id.value, -1,
                          size, rationale_quota_);
      }
      continue;
    }

    // Algorithm 1's node list: active GPUs ordered by free memory. We walk
    // it best-fit (least free first) so work consolidates onto already-busy
    // GPUs and idle ones can deep-sleep. The aggregator keeps the list
    // between queries (re-sorted only when its inputs moved); iterate the
    // descending order in reverse instead of copying it. `accept` filters
    // the walk by node class for the spot-preference passes.
    const auto try_views = [&](auto&& accept) -> bool {
      const auto& views = ctx.aggregator->active_sorted_by_free_memory();
      for (auto it = views.rbegin(); it != views.rend(); ++it) {
        const auto& view = *it;
        // Degradation path: a stale view is last-known-good, not current —
        // never place on what might be a ghost; dead nodes host nothing.
        if (view.stale) continue;
        if (!accept(view)) continue;
        if (cl.node_health(view.node) == cluster::NodeHealth::kDown) continue;
        auto& dev = cl.device(view.gpu);
        if (!dev.provision_fits(size)) continue;
        if (dev.totals().sm_demand + sm > sm_cap) continue;
        if (pod.latency_critical()) {
          // QoS guard: deadline must survive even coincident resident peaks.
          if (!lc_peak_safe(cl, pod, dev)) continue;
        } else {
          // Protect resident queries from a batch context moving in.
          bool hosts_lc = false;
          for (PodId resident : dev.residents()) {
            if (cl.pod(resident).latency_critical()) {
              hosts_lc = true;
              break;
            }
          }
          if (hosts_lc) continue;
        }
        if (!correlation_ok(cl, pod, dev) &&
            !forecast_override(cl, view, size)) {
          continue;
        }
        if (cl.place(id, view.gpu, size)) {
          if (ctx.trace != nullptr) {
            ctx.trace->record(ctx.now, obs::EventKind::kDecision, id.value,
                              view.gpu.value, size, rationale_placed_);
          }
          return true;
        }
      }
      return false;
    };

    bool placed = false;
    const bool avoid = pod.spec().avoid_preemptible;
    if (!spot) {
      placed = try_views([](const telemetry::GpuView&) { return true; });
    } else if (avoid) {
      // Hard constraint: SLO-bearing pods never land on spot capacity.
      placed =
          try_views([](const telemetry::GpuView& v) { return !v.preemptible; });
    } else if (!pod.latency_critical() &&
               pod.spec().klass == workload::PodClass::kBatch) {
      // Harvested best-effort work soaks up spot capacity first, keeping
      // on-demand nodes free for SLO-bearing pods; spills over when full.
      placed =
          try_views([](const telemetry::GpuView& v) { return v.preemptible; }) ||
          try_views([](const telemetry::GpuView& v) { return !v.preemptible; });
    } else {
      // Queries and serving replicas prefer stable capacity but may use
      // spot as overflow (unless avoid_preemptible pinned them off it).
      placed =
          try_views([](const telemetry::GpuView& v) { return !v.preemptible; }) ||
          try_views([](const telemetry::GpuView& v) { return v.preemptible; });
    }
    if (placed) continue;

    // No active GPU admits the pod: wake a parked one (leaves deep sleep).
    // The parked bitmap's set bits ascend, matching the historical dense
    // scan's first-parked-fit choice. place() clears the bit it wakes, but
    // the word copy below is already snapshotted and we break on success.
    const auto& parked = cl.parked_gpu_bits();
    for (std::size_t w = 0; w < parked.size() && !placed; ++w) {
      std::uint64_t bits = parked[w];
      while (bits != 0) {
        const GpuId gpu{static_cast<std::int32_t>(
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)))};
        bits &= bits - 1;
        const NodeId node = cl.node_of_gpu(gpu);
        if (cl.node_health(node) == cluster::NodeHealth::kDown) {
          continue;
        }
        if (spot && avoid && cl.node_spec(node).preemptible) continue;
        if (!cl.device(gpu).provision_fits(size)) continue;
        if (cl.place(id, gpu, size)) {
          placed = true;
          if (ctx.trace != nullptr) {
            ctx.trace->record(ctx.now, obs::EventKind::kDecision, id.value,
                              gpu.value, size, rationale_woke_);
          }
          break;
        }
      }
    }
    if (!placed && ctx.trace != nullptr) {
      ctx.trace->record(ctx.now, obs::EventKind::kDecision, id.value, -1,
                        size, rationale_no_fit_);
    }
  }
}

}  // namespace knots::sched
