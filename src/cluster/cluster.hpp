// The simulated GPU cluster: worker nodes with telemetry, a head node with
// the utilization aggregator and profile store, pod lifecycle management,
// and the experiment metrics the figures read.
//
// Sharing semantics (§IV-B): GPU compute is time-shared — aggregate SM
// demand above 100 % slows every resident proportionally (plus a context-
// switch tax); memory is space-shared — aggregate *usage* above physical
// capacity crashes the pod whose growth tripped the violation, which
// relaunches from scratch at the back of the queue after a delay.
//
// load() keeps the workload's arrivals as a table in (arrival, id) order
// and replays it with one arrival event queued at a time; submit_pod() and
// every other one-shot (faults, relaunches, pulls) schedule their own event.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/metrics.hpp"
#include "cluster/observer.hpp"
#include "cluster/pod.hpp"
#include "cluster/profile_store.hpp"
#include "cluster/scheduler.hpp"
#include "cluster/tenant_ledger.hpp"
#include "core/arena.hpp"
#include "core/page_arena.hpp"
#include "core/rng.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "gpu/gpu_node.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/timeseries_db.hpp"

namespace knots::cluster {

/// One class of identical worker nodes in a heterogeneous cluster: a device
/// model from the gpu::DeviceModel registry times a count, optionally spot.
struct NodeClass {
  std::string device_model;  ///< Registry name, e.g. "v100-32g".
  int count = 0;
  int gpus_per_node = 0;     ///< 0 = inherit ClusterConfig::gpus_per_node.
  bool preemptible = false;  ///< Spot capacity (reclaimable via FaultPlan).
  SimTime spot_notice = 0;   ///< Reclaim warning → actual node-down grace.
  friend bool operator==(const NodeClass&, const NodeClass&) = default;
};

/// Progress/scheduling quantum.
inline constexpr SimTime kTick = 10 * kMsec;
/// First image pull on a node (§V-B).
inline constexpr SimTime kColdStart = 2 * kSec;
/// Cached-image container launch.
inline constexpr SimTime kWarmStart = 25 * kMsec;
/// Non-preemptive kernel blocking: a latency-critical pod's progress is
/// further slowed by 1 + tax × (aggregate SM demand of co-resident batch
/// pods). Short inference kernels queue behind long batch kernels; batch
/// pods barely notice the reverse (§I: GPUs cannot preempt).
inline constexpr double kLcBlockingTax = 2.5;

struct ClusterConfig {
  int nodes = 10;               ///< Paper testbed: ten P100 worker nodes.
  int gpus_per_node = 1;
  gpu::NodeSpec node_spec{};    ///< gpus_per_node above overrides the spec's.
  /// Heterogeneous substrate: when non-empty, nodes are built class by class
  /// (in list order, so node ids are contiguous per class) from the device
  /// model registry and `nodes`/`node_spec.gpu` above are ignored. Empty
  /// keeps the historical homogeneous construction bit-for-bit.
  std::vector<NodeClass> node_classes{};
  /// Per-tenant admission caps. Any entry switches the TenantLedger to
  /// enforcing: placements are quota-gated centrally in place(). Empty =
  /// no quotas, and tenant-0-only runs stay ledger-invisible.
  std::vector<TenantQuotaSpec> tenant_quotas{};
  /// Cluster-wide instantaneous power budget in watts (0 = uncapped). Not a
  /// control loop — the invariant checker audits that the simulated draw
  /// never exceeds it, for power-capped-rack scenarios.
  double power_cap_watts = 0.0;
  SimTime drain_grace = 30 * kMinute; ///< Max drain time past last arrival.
  double telemetry_noise = 0.005;     ///< NVML measurement noise (sigma).
  std::uint64_t seed = 42;
  /// Heartbeat rows retained per GPU (the node-local time-series store's
  /// retention policy). The default preserves the historical capacity;
  /// datacenter-scale runs shrink it to bound memory — results are
  /// unchanged as long as it covers the widest scheduler lookback window
  /// (window / kTick rows; 500 at the defaults).
  std::size_t telemetry_retention = 65536;
  /// Optional datacenter fabric (empty = no fabric — the historical model
  /// where transfers are free). A non-inert fabric charges cold image pulls
  /// as real registry→node flows, stretching pod startup under contention.
  net::FabricPlan fabric{};
  /// Container image size a cold pull transfers over the fabric. Ignored
  /// without a (non-inert) fabric.
  double image_mb = 2048.0;
};

enum class NodeHealth { kHealthy, kDown };

class Cluster : private net::FabricObserver {
 public:
  Cluster(const ClusterConfig& config, Scheduler& scheduler);

  /// Registers the workload; call once before run(). The arrivals are
  /// replayed in (arrival, id) order with one event queued at a time
  /// (sim::Simulation::replay_sorted), in the order scheduling each by id
  /// would pop them.
  void load(std::vector<workload::PodSpec> specs);

  /// Installs a fault schedule (validated against the topology); call
  /// before run(). Every event is replayed on the discrete-event engine, so
  /// identical (config, seed, plan) runs are bit-identical.
  void set_fault_plan(fault::FaultPlan plan);

  /// Runs to completion (all pods terminal) or the drain-grace deadline.
  /// The deadline tracks the latest arrival, including pods submitted
  /// mid-run via submit_pod().
  void run();

  // ---- Control-plane API (knots::serve and other mid-run drivers) ----
  /// Submits a pod while the cluster is running (autoscaler scale-up). The
  /// spec's id is overwritten with the next dense id; its arrival is
  /// clamped to now-or-later. The pod joins the pending queue at its
  /// arrival time and is placed by the scheduler like any other pod.
  PodId submit_pod(workload::PodSpec spec);

  /// Gracefully retires a *running* pod (autoscaler scale-down): detaches
  /// it from its GPU and completes it through the normal completion path.
  /// Returns false when the pod is not currently running (pending or
  /// still starting replicas cannot be retired yet).
  bool finish_pod(PodId id);

  /// The cluster's discrete-event engine. Control planes (the serving
  /// engine, autoscalers) schedule their own events here so request
  /// processing, scale decisions and cluster ticks interleave in one
  /// deterministic (time, insertion-seq) order.
  [[nodiscard]] sim::Simulation& engine() noexcept { return sim_; }

  // ---- Read API (schedulers, tests, benches) ----
  [[nodiscard]] SimTime now() const noexcept { return sim_.now(); }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::deque<PodId>& pending() const noexcept {
    return pending_;
  }
  [[nodiscard]] const Pod& pod(PodId id) const;
  [[nodiscard]] std::size_t pod_count() const noexcept { return pods_.size(); }
  [[nodiscard]] std::size_t completed_count() const noexcept {
    return completed_;
  }
  /// Scheduling quanta executed so far (the bench harness's ticks/sec
  /// denominator).
  [[nodiscard]] std::uint64_t tick_count() const noexcept { return ticks_; }
  /// Discrete events dispatched by the underlying engine (bench events/sec
  /// numerator).
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return sim_.events_processed();
  }
  [[nodiscard]] const telemetry::UtilizationAggregator& aggregator() const {
    return aggregator_;
  }
  [[nodiscard]] const ProfileStore& profiles() const { return profile_store_; }
  [[nodiscard]] const MetricsCollector& metrics() const { return *metrics_; }
  /// Per-tenant accounting (inactive — no rows — in default single-tenant
  /// runs without quotas).
  [[nodiscard]] const TenantLedger& tenant_ledger() const noexcept {
    return ledger_;
  }

  [[nodiscard]] std::size_t gpu_count() const noexcept { return gpu_index_.size(); }
  // Flat device table: one indirection instead of gpu_index_ + node + slot
  // (the tick hot path resolves tens of millions of GpuIds per run).
  [[nodiscard]] gpu::GpuDevice& device(GpuId id) {
    return *devices_[static_cast<std::size_t>(id.value)];
  }
  [[nodiscard]] const gpu::GpuDevice& device(GpuId id) const {
    return *devices_[static_cast<std::size_t>(id.value)];
  }
  [[nodiscard]] std::vector<GpuId> all_gpus() const;

  /// Occupancy bitmap over dense GPU indices: bit (i & 63) of word (i >> 6)
  /// is set while GPU i hosts at least one pod. Maintained at every
  /// attach/detach; schedulers iterate the set bits (ascending, identical
  /// to a full scan that skips empty devices) instead of touching every
  /// device in the datacenter.
  [[nodiscard]] const std::vector<std::uint64_t>& occupied_gpu_bits()
      const noexcept {
    return occupied_bits_;
  }
  /// Parked bitmap over dense GPU indices (same layout). Set on park,
  /// cleared on attach (attach wakes the device).
  [[nodiscard]] const std::vector<std::uint64_t>& parked_gpu_bits()
      const noexcept {
    return parked_bits_;
  }

  // ---- Fault/health API ----
  [[nodiscard]] int node_count() const noexcept { return config_.nodes; }
  [[nodiscard]] NodeId node_of_gpu(GpuId id) const;
  /// The node's spec (device model, spot flags) — heterogeneous clusters
  /// differ per node.
  [[nodiscard]] const gpu::NodeSpec& node_spec(NodeId id) const {
    return nodes_.at(static_cast<std::size_t>(id.value))->spec();
  }
  /// True when any node is spot capacity. Spot-aware schedulers gate their
  /// two-pass preference walk on this so spot-free clusters pay nothing
  /// (and place bit-identically to the pre-spot code).
  [[nodiscard]] bool has_preemptible_nodes() const noexcept {
    return has_preemptible_;
  }
  [[nodiscard]] NodeHealth node_health(NodeId id) const;
  /// Instantaneous whole-cluster draw (hosts + GPUs) — the same sum the
  /// energy integrator uses; audited against config().power_cap_watts.
  [[nodiscard]] double total_power_watts() const;
  [[nodiscard]] const fault::FaultStats& fault_stats() const noexcept {
    return injector_->stats();
  }

  // ---- Fabric API ----
  /// The live fabric, or nullptr when the config declared none.
  [[nodiscard]] const net::Fabric* fabric() const noexcept {
    return fabric_.get();
  }
  /// True when pulls/migrations are actually charged on a fabric (a fabric
  /// exists and is not inert).
  [[nodiscard]] bool fabric_active() const noexcept {
    return fabric_ != nullptr && !fabric_->inert();
  }

  // ---- Mutation API (schedulers) ----
  /// Places a pending pod on a GPU with the given container allocation.
  /// Removes it from the pending queue; start latency depends on whether the
  /// image is cached on the target node. Returns false if the pod is not
  /// pending.
  bool place(PodId id, GpuId gpu, double provisioned_mb);

  /// Docker resize of a running pod's container allocation. Fails when the
  /// new size is below current usage.
  bool resize_pod(PodId id, double provisioned_mb);

  /// Records a tenant-quota refusal a scheduler discovered in its own
  /// pre-check (CBP skips the node walk for over-budget tenants). Counting
  /// here keeps its rejection accounting identical to schedulers that only
  /// find out inside place().
  void note_quota_rejection(int tenant) { ledger_.note_rejection(tenant); }

  /// Parks an empty GPU into deep sleep; fails when occupied or on a dead
  /// node.
  bool park(GpuId id);

  /// Drains a node for a crash: evicts every resident pod back to pending
  /// (after the eviction relaunch delay) and forgets the node's image
  /// cache. Also usable directly for graceful-drain experiments.
  void evict_node(NodeId id);

  // ---- Observation API (verification layer) ----
  /// Registers a passive observer notified on every lifecycle edge and at
  /// the end of every tick, in registration order. The observer must
  /// outlive the cluster's run(); it is not owned.
  void add_observer(ClusterObserver* observer);

  /// Packed per-pod state table (index = pod id, value = PodState),
  /// maintained at every transition. Lets auditors diff one byte per pod
  /// per tick instead of dereferencing every Pod; always consistent with
  /// pod(id).state() at observer time.
  [[nodiscard]] const std::vector<std::uint8_t>& pod_state_table()
      const noexcept {
    return pod_states_;
  }

  // ---- Observability API (obs layer; call before run()) ----
  /// Attaches a tracer recording every lifecycle edge, fault transition,
  /// telemetry scrape and scheduler decision. Not owned; nullptr detaches.
  /// Purely observational — the decision sequence (and run digest) of a
  /// traced run is bit-identical to the untraced run.
  void set_trace_sink(obs::TraceSink* sink) noexcept;
  /// Attaches a metrics registry: per-tick cluster gauges, lifecycle
  /// counters, and the hot-path profiling histograms (sched.on_schedule_ns,
  /// telemetry.agg_sort_ns, sim.dispatch_ns). Not owned; nullptr detaches.
  void set_metrics_registry(obs::MetricsRegistry* registry);

 private:
  // -- net::FabricObserver (fabric events fan out to cluster observers) --
  void on_flow_start(std::uint64_t flow, net::FlowKind kind, int src_node,
                     int dst_node, double mb, SimTime now) override;
  void on_flow_finish(std::uint64_t flow, net::FlowKind kind, bool contended,
                      SimTime now) override;
  void on_link_state(std::size_t link, bool up, SimTime now) override;

  void on_arrival(PodId id);
  void tick();
  void advance_running_pods();
  void start_ready_pods();
  /// Detaches a running pod and records its completion (metrics, profile
  /// store, observers, trace).
  void complete_pod(Pod& pod);
  /// Detaches a pod whose usage no longer fits its GPU, records the crash
  /// and schedules its relaunch.
  void crash_pod(Pod& pod);
  void sample_figure_metrics();
  void maybe_park_idle_gpus();
  [[nodiscard]] SchedulingContext make_context();
  void apply_fault(const fault::FaultEvent& event);
  /// Takes a node down for a crash or a landed spot reclaim: evicts its
  /// residents through the kEvicted requeue path, tells observers, the
  /// trace and the scheduler, and recovers it after `duration` (0 =
  /// never). A node that is already down absorbs the event.
  void take_node_down(NodeId id, SimTime duration);
  void recover_node(NodeId id);
  /// Returns a crashed or evicted pod to pending after `delay`.
  void requeue_after(PodId id, SimTime delay);
  /// Parks an idle GPU and records the park (bitmap, observers, trace).
  void record_park(GpuId id);
  void detect_stale_transitions(SchedulingContext& ctx);
  void update_tick_metrics(double cluster_watts);
  [[nodiscard]] bool all_terminal() const;
  [[nodiscard]] gpu::Usage jittered(const gpu::Usage& usage, Rng& rng) const;
  /// Mirrors a pod's state into the packed table.
  void note_state(const Pod& p) noexcept {
    pod_states_[static_cast<std::size_t>(p.id().value)] =
        static_cast<std::uint8_t>(p.state());
  }
  // Bitmap bookkeeping for device mutations.
  void note_attach(GpuId g) noexcept {
    const auto i = static_cast<std::size_t>(g.value);
    occupied_bits_[i >> 6] |= std::uint64_t{1} << (i & 63);
    parked_bits_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));  // attach wakes
  }
  void note_detach(GpuId g) noexcept {
    const auto i = static_cast<std::size_t>(g.value);
    if (devices_[i]->totals().residents == 0) {
      occupied_bits_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }
  }
  void note_parked(GpuId g) noexcept {
    const auto i = static_cast<std::size_t>(g.value);
    parked_bits_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  ClusterConfig config_;
  Scheduler* scheduler_;
  sim::Simulation sim_;
  Rng rng_;

  std::vector<std::unique_ptr<gpu::GpuNode>> nodes_;
  /// Backs every node db's telemetry rings and noise checkpoints (declared
  /// before dbs_ so it outlives them): one shared huge-page arena packs the
  /// whole datacenter's rings contiguously in node order — per-node arenas
  /// would never fill a huge page (a small node's rings are ~KBs).
  core::PageArena telemetry_arena_;
  /// One per node, in node order; each samples its node and owns the
  /// stream that noises the node's readings.
  std::vector<std::unique_ptr<telemetry::TimeSeriesDb>> dbs_;
  telemetry::UtilizationAggregator aggregator_;
  // GpuId -> (node index, gpu index within node); ids are dense from 0.
  std::vector<std::pair<std::size_t, std::size_t>> gpu_index_;
  // GpuId -> device, flat. Stable: GpuNode owns devices by unique_ptr.
  std::vector<gpu::GpuDevice*> devices_;
  std::vector<std::uint64_t> occupied_bits_;  ///< see occupied_gpu_bits()
  std::vector<std::uint64_t> parked_bits_;    ///< see parked_gpu_bits()

  // Pods live in a slab arena: stable addresses, one bulk allocation per
  // slab instead of one heap node per pod (10k-node runs create hundreds of
  // thousands of relaunch-churned pods).
  core::SlabArena<Pod> pod_arena_;
  std::vector<Pod*> pods_;
  /// load()'s pods in (arrival, id) order: the table the engine replays
  /// their arrivals from.
  std::vector<PodId> arrival_order_;
  std::deque<PodId> pending_;
  std::vector<PodId> active_;  ///< Starting or running, in placement order.
  /// Pods possibly still kStarting, in placement order (a subsequence of
  /// active_'s order). May hold stale entries after an eviction/crash; the
  /// per-tick start_ready_pods() sweep drops any whose state moved on —
  /// always before the pod can re-enter kStarting, because re-entry requires
  /// a requeue event plus an on_schedule placement, and every tick runs this
  /// sweep before on_schedule.
  std::vector<PodId> starting_;
  /// Packed PodState per pod id (see pod_state_table()).
  std::vector<std::uint8_t> pod_states_;
  ProfileStore profile_store_;
  TenantLedger ledger_;
  /// Per-device compute factor (dense GpuId order), snapshotted once at
  /// construction so the tick hot path never chases spec pointers. All 1.0
  /// on a homogeneous P100 cluster.
  std::vector<double> compute_factor_;
  std::unique_ptr<MetricsCollector> metrics_;
  std::set<std::pair<std::size_t, std::string>> image_cache_;
  std::vector<SimTime> gpu_last_busy_;
  std::vector<ClusterObserver*> observers_;
  std::unique_ptr<net::Fabric> fabric_;  ///< null when config_.fabric empty
  fault::FaultPlan fault_plan_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<bool> gpu_stale_;  ///< Previous-tick staleness, for edges.
  bool has_preemptible_ = false;  ///< Any node is spot capacity.
  SimTime last_arrival_ = 0;
  std::size_t completed_ = 0;
  std::uint64_t pod_rng_counter_ = 0;
  std::uint64_t ticks_ = 0;

  // Persistent per-tick scratch: the tick hot loop never reallocates.
  std::vector<double> slowdown_scratch_;
  std::vector<double> batch_sm_scratch_;
  std::vector<PodId> still_active_scratch_;

  // Observability (all optional, never sampled by the simulation itself).
  obs::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Histogram* sched_profile_ = nullptr;  ///< sched.on_schedule_ns
  obs::Histogram* advance_profile_ = nullptr;  ///< cluster.advance_ns
  obs::Histogram* scrape_profile_ = nullptr;   ///< telemetry.scrape_ns
  // Instrument handles resolved once at attach time — the per-tick and
  // per-lifecycle-edge paths never pay the registry's name lookup.
  obs::Counter* ticks_counter_ = nullptr;
  obs::Counter* placements_counter_ = nullptr;
  obs::Counter* completions_counter_ = nullptr;
  obs::Counter* crashes_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* faults_counter_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Gauge* completed_gauge_ = nullptr;
  obs::Gauge* power_gauge_ = nullptr;
  obs::Gauge* parked_gauge_ = nullptr;
};

}  // namespace knots::cluster
