#include "verify/invariant_checker.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "cluster/cluster.hpp"
#include "core/check.hpp"

namespace knots::verify {

namespace {

/// Absolute slack for floating-point memory accounting comparisons.
constexpr double kEpsMb = 1e-6;

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string gpu_tag(GpuId gpu) {
  return "gpu " + std::to_string(gpu.value);
}

std::string pod_tag(PodId pod) {
  return "pod " + std::to_string(pod.value);
}

}  // namespace

InvariantChecker::InvariantChecker(InvariantOptions options)
    : options_(options) {}

void InvariantChecker::report(const cluster::Cluster& cluster,
                              std::string category, std::string message) {
  ++violation_count_;
  if (options_.fatal) {
    const std::string full = category + ": " + message;
    KNOTS_CHECK_MSG(false, full.c_str());
  }
  if (violations_.size() < options_.max_recorded) {
    violations_.push_back(
        Violation{std::move(category), std::move(message), cluster.now()});
  }
}

void InvariantChecker::check_time(const cluster::Cluster& cluster) {
  const SimTime now = cluster.now();
  if (now <= last_tick_) {
    report(cluster, "time-monotonicity",
           "tick time " + std::to_string(now) +
               " did not advance past previous tick " +
               std::to_string(last_tick_));
  }
  last_tick_ = now;
}

void InvariantChecker::check_devices(const cluster::Cluster& cluster) {
  // Dense GPU ids: walk indices instead of allocating all_gpus() per tick.
  const std::size_t gpus = cluster.gpu_count();
  for (std::size_t g = 0; g < gpus; ++g) {
    const GpuId gpu{static_cast<std::int32_t>(g)};
    const auto& dev = cluster.device(gpu);
    const auto totals = dev.totals();
    const auto& spec = dev.spec();

    // Space-shared memory: aggregate *usage* must fit the usable device
    // (physical capacity minus ECC-retired pages) at every rest state
    // (transient overshoot crashes the grower before the tick ends).
    if (totals.memory_used_mb > dev.effective_memory_mb() + kEpsMb) {
      report(cluster, "gpu-memory",
             gpu_tag(gpu) + " usage " + fmt_double(totals.memory_used_mb) +
                 " MB exceeds usable capacity " +
                 fmt_double(dev.effective_memory_mb()) + " MB");
    }
    if (totals.memory_used_mb < -kEpsMb ||
        totals.memory_provisioned_mb < -kEpsMb) {
      report(cluster, "gpu-memory",
             gpu_tag(gpu) + " negative memory accounting");
    }
    if (options_.provision_ceiling_ratio > 0 &&
        totals.memory_provisioned_mb >
            options_.provision_ceiling_ratio * spec.memory_mb + kEpsMb) {
      report(cluster, "gpu-provision",
             gpu_tag(gpu) + " provisioned " +
                 fmt_double(totals.memory_provisioned_mb) +
                 " MB exceeds ceiling " +
                 fmt_double(options_.provision_ceiling_ratio *
                            spec.memory_mb) +
                 " MB");
    }

    // Time-shared SMs: delivered utilization is demand clamped to [0, 1].
    if (totals.sm_util < 0.0 || totals.sm_util > 1.0) {
      report(cluster, "gpu-utilization",
             gpu_tag(gpu) + " sm_util " + fmt_double(totals.sm_util) +
                 " outside [0, 1]");
    }
    if (totals.sm_util > totals.sm_demand + 1e-12) {
      report(cluster, "gpu-utilization",
             gpu_tag(gpu) + " delivered utilization " +
                 fmt_double(totals.sm_util) + " exceeds demand " +
                 fmt_double(totals.sm_demand));
    }

    // P100 p-state envelope: deep sleep (P12) through TDP.
    const double watts = dev.power_watts();
    if (watts < spec.power.deep_sleep_watts - 1e-9 ||
        watts > spec.power.max_watts + 1e-9) {
      report(cluster, "gpu-power",
             gpu_tag(gpu) + " power " + fmt_double(watts) +
                 " W outside envelope [" +
                 fmt_double(spec.power.deep_sleep_watts) + ", " +
                 fmt_double(spec.power.max_watts) + "]");
    }

    // Internal accounting: totals must agree with per-pod records.
    const auto& residents = dev.residents();
    if (static_cast<std::size_t>(totals.residents) != residents.size()) {
      report(cluster, "gpu-accounting",
             gpu_tag(gpu) + " resident count " +
                 std::to_string(totals.residents) + " != tracked pods " +
                 std::to_string(residents.size()));
    }
    double provisioned_sum = 0;
    for (const double mb : dev.allocations()) provisioned_sum += mb;
    if (std::abs(provisioned_sum - totals.memory_provisioned_mb) > kEpsMb) {
      report(cluster, "gpu-accounting",
             gpu_tag(gpu) + " provisioned total " +
                 fmt_double(totals.memory_provisioned_mb) +
                 " != per-pod sum " + fmt_double(provisioned_sum));
    }
    if (dev.parked() && totals.residents != 0) {
      report(cluster, "gpu-parking",
             gpu_tag(gpu) + " parked with " +
                 std::to_string(totals.residents) + " residents");
    }

    // A dead node hosts nothing: the eviction path must have drained it
    // before the tick's rest state.
    if (cluster.node_health(cluster.node_of_gpu(gpu)) ==
            cluster::NodeHealth::kDown &&
        totals.residents != 0) {
      report(cluster, "node-health",
             gpu_tag(gpu) + " on a down node with " +
                 std::to_string(totals.residents) + " residents");
    }
  }
}

void InvariantChecker::audit_pod(const cluster::Cluster& cluster,
                                 std::size_t index,
                                 std::uint8_t packed_state) {
  using S = cluster::PodState;
  const PodId id{static_cast<std::int32_t>(index)};
  const auto& pod = cluster.pod(id);
  const S state = pod.state();
  if (static_cast<std::uint8_t>(state) != packed_state) {
    report(cluster, "pod-state-table",
           pod_tag(id) + " packed state " + std::to_string(packed_state) +
               " disagrees with pod state " +
               std::string(to_string(state)));
  }

  const double progress = pod.progress();
  if (progress < 0.0 || progress > 1.0) {
    report(cluster, "pod-progress",
           pod_tag(id) + " progress " + fmt_double(progress) +
               " outside [0, 1]");
  }
  // Service replicas (PodClass::kService) are long-running servers whose
  // lifetime is a control-plane decision: the serve autoscaler retires them
  // mid-profile by design, so early completion is only a violation for
  // profile-driven pods.
  if (state == S::kCompleted && !pod.finished_profile() &&
      pod.spec().klass != workload::PodClass::kService) {
    report(cluster, "pod-progress",
           pod_tag(id) + " completed without finishing its profile");
  }

  // A placed pod must be resident on its GPU with a matching allocation,
  // and that GPU's node must be alive.
  if (state == S::kStarting || state == S::kRunning) {
    if (cluster.node_health(cluster.node_of_gpu(pod.gpu())) ==
        cluster::NodeHealth::kDown) {
      report(cluster, "node-health",
             pod_tag(id) + " in state " + std::string(to_string(state)) +
                 " on down node " +
                 std::to_string(cluster.node_of_gpu(pod.gpu()).value));
    }
    const auto& dev = cluster.device(pod.gpu());
    const auto recorded = dev.provisioned_mb(id);
    if (!recorded.has_value()) {
      report(cluster, "pod-residency",
             pod_tag(id) + " in state " + std::string(to_string(state)) +
                 " but not resident on " + gpu_tag(pod.gpu()));
    } else if (std::abs(*recorded - pod.provisioned_mb()) > kEpsMb) {
      report(cluster, "pod-residency",
             pod_tag(id) + " allocation " + fmt_double(pod.provisioned_mb()) +
                 " MB disagrees with device record " +
                 fmt_double(*recorded) + " MB");
    }
  }
}

void InvariantChecker::check_pods(const cluster::Cluster& cluster) {
  using S = cluster::PodState;
  const std::size_t n = cluster.pod_count();
  // Pods are all loaded before run(); the first audit baselines them at
  // their construction state (Pending).
  last_states_.resize(n, static_cast<std::uint8_t>(S::kPending));

  auto& in_pending = in_pending_scratch_;
  in_pending.assign(n, false);
  for (PodId id : cluster.pending()) {
    const auto idx = static_cast<std::size_t>(id.value);
    if (!id.valid() || idx >= n) {
      report(cluster, "pod-queue", "pending queue holds invalid " + pod_tag(id));
      continue;
    }
    if (in_pending[idx]) {
      report(cluster, "pod-queue",
             pod_tag(id) + " appears twice in the pending queue");
    }
    in_pending[idx] = true;
    if (cluster.pod(id).state() != S::kPending) {
      report(cluster, "pod-queue",
             pod_tag(id) + " queued while in state " +
                 std::string(to_string(cluster.pod(id).state())));
    }
  }

  // Delta audit over the cluster's packed state table: one byte per pod
  // decides everything cheap (conservation histogram, transition legality —
  // same state to same state is always legal), and only pods that changed
  // state or sit in a live state (Starting/Running: progress and residency
  // move without a state edge) pay the full per-pod dereference.
  // scan_pod_states compares the table with its mirror eight pods at a
  // time: a word equal to its mirror whose pods are all frozen (Pending,
  // Completed, Crashed, Evicted) only adds its per-state counts, so a tick
  // pays about one compare per word of the table and the byte path only
  // around live or changed pods. The packed byte is cross-checked against
  // pod.state() for every audited pod, so a stale table is itself a
  // detected violation. Trade-off versus the old exhaustive sweep:
  // corruption of a *frozen* pod's fields with no state change (impossible
  // through the public API) is no longer caught every tick — only at its
  // next transition.
  const auto& table = cluster.pod_state_table();
  if (table.size() != n) {
    report(cluster, "pod-state-table",
           "state table size " + std::to_string(table.size()) +
               " != pod count " + std::to_string(n));
    return;
  }
  StateHistogram by_state;
  scan_pod_states(table, last_states_, by_state, hits_scratch_);
  for (const PodStateHit& hit : hits_scratch_) {
    const PodId id{static_cast<std::int32_t>(hit.pod)};
    if (hit.out_of_range) {
      report(cluster, "pod-state-table",
             pod_tag(id) + " packed state " + std::to_string(hit.cur) +
                 " out of range");
      continue;
    }
    if (hit.illegal) {
      report(cluster, "pod-transition",
             pod_tag(id) + " illegal transition " +
                 std::string(to_string(static_cast<S>(hit.prev))) + " -> " +
                 std::string(to_string(static_cast<S>(hit.cur))));
    }
    audit_pod(cluster, hit.pod, hit.cur);
  }

  // Conservation: every submitted pod is in exactly one lifecycle state,
  // and the cluster's completion counter matches the terminal population.
  std::size_t total = 0;
  for (std::size_t c : by_state) total += c;
  if (total != n) {
    report(cluster, "pod-conservation",
           "state counts sum to " + std::to_string(total) + " but " +
               std::to_string(n) + " pods were submitted");
  }
  if (by_state[static_cast<std::size_t>(S::kCompleted)] !=
      cluster.completed_count()) {
    report(cluster, "pod-conservation",
           "completed counter " + std::to_string(cluster.completed_count()) +
               " != terminal pods " +
               std::to_string(
                   by_state[static_cast<std::size_t>(S::kCompleted)]));
  }
}

void InvariantChecker::check_power_cap(const cluster::Cluster& cluster) {
  const double cap = cluster.config().power_cap_watts;
  if (cap <= 0) return;
  const double watts = cluster.total_power_watts();
  if (watts > cap + 1e-6) {
    report(cluster, "power-cap",
           "cluster draw " + fmt_double(watts) + " W exceeds cap " +
               fmt_double(cap) + " W");
  }
}

void InvariantChecker::check_tenants(const cluster::Cluster& cluster) {
  const auto& ledger = cluster.tenant_ledger();
  if (ledger.empty()) return;

  // Ground truth: per-tenant provisioned memory recomputed from device
  // residents. A run has a handful of tenants, so a linear scan finds each
  // one's sum; the visiting order fixes every sum's rounding.
  tenant_sums_.clear();
  const auto sum_of = [this](int tenant) {
    return std::find_if(
        tenant_sums_.begin(), tenant_sums_.end(),
        [tenant](const TenantSum& t) { return t.tenant == tenant; });
  };
  const std::size_t gpus = cluster.gpu_count();
  for (std::size_t g = 0; g < gpus; ++g) {
    const auto& dev = cluster.device(GpuId{static_cast<std::int32_t>(g)});
    const auto& residents = dev.residents();
    const auto& allocations = dev.allocations();
    for (std::size_t i = 0; i < residents.size(); ++i) {
      const int tenant = cluster.pod(residents[i]).spec().tenant;
      auto it = sum_of(tenant);
      if (it == tenant_sums_.end()) {
        it = tenant_sums_.insert(it, TenantSum{.tenant = tenant});
      }
      it->mb += allocations[i];
    }
  }
  ledger.for_each_row([&](const cluster::TenantRow& row) {
    const auto it = sum_of(row.tenant);
    double truth = 0.0;
    if (it != tenant_sums_.end()) {
      truth = it->mb;
      it->has_row = true;
    }
    if (std::abs(truth - row.provisioned_mb) > kEpsMb) {
      report(cluster, "tenant-accounting",
             "tenant " + std::to_string(row.tenant) + " ledger charge " +
                 fmt_double(row.provisioned_mb) + " MB != resident sum " +
                 fmt_double(truth) + " MB");
    }
    if (row.quota.provision_cap_mb > 0 &&
        row.provisioned_mb > row.quota.provision_cap_mb + kEpsMb) {
      report(cluster, "tenant-quota",
             "tenant " + std::to_string(row.tenant) + " provisioned " +
                 fmt_double(row.provisioned_mb) + " MB exceeds quota " +
                 fmt_double(row.quota.provision_cap_mb) + " MB");
    }
  });
  // Residents charged to a tenant the ledger should track but has no row
  // for mean a charge was dropped; reported in ascending tenant order.
  const auto dropped = std::partition(
      tenant_sums_.begin(), tenant_sums_.end(), [&](const TenantSum& t) {
        return t.has_row || !ledger.tracks(t.tenant) || t.mb <= kEpsMb;
      });
  std::sort(dropped, tenant_sums_.end(),
            [](const TenantSum& a, const TenantSum& b) {
              return a.tenant < b.tenant;
            });
  for (auto it = dropped; it != tenant_sums_.end(); ++it) {
    report(cluster, "tenant-accounting",
           "tenant " + std::to_string(it->tenant) + " holds " +
               fmt_double(it->mb) + " MB of residents but has no ledger row");
  }
}

void InvariantChecker::on_tick_end(const cluster::Cluster& cluster) {
  ++checks_;
  check_time(cluster);
  check_devices(cluster);
  check_pods(cluster);
  check_power_cap(cluster);
  check_tenants(cluster);
}

}  // namespace knots::verify
