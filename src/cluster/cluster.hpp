// The simulated GPU cluster: worker nodes with telemetry, a head node with
// the utilization aggregator and profile store, pod lifecycle management,
// and the experiment metrics the figures read.
//
// Sharing semantics (§IV-B): GPU compute is time-shared — aggregate SM
// demand above 100 % slows every resident proportionally (plus a context-
// switch tax); memory is space-shared — aggregate *usage* above physical
// capacity crashes the pod whose growth tripped the violation, which
// relaunches from scratch at the back of the queue after a delay.
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
#include "sim/shard.hpp"
#include "sim/simulation.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/sampler.hpp"
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
  SimTime tick = 10 * kMsec;    ///< Progress/scheduling quantum.
  SimTime metrics_period = 1 * kSec;  ///< Figure-metrics sampling cadence.
  SimTime cold_start = 2 * kSec;      ///< First image pull on a node (§V-B).
  SimTime warm_start = 25 * kMsec;    ///< Cached-image container launch.
  SimTime relaunch_delay = 3 * kSec;  ///< Crash → rejoin pending queue.
  /// Node-death eviction → rejoin pending queue. Longer than the crash
  /// relaunch delay: kubelet must notice the node is gone before pods are
  /// rescheduled.
  SimTime evict_relaunch_delay = 5 * kSec;
  /// Missed heartbeats before the aggregator marks a GPU's series stale.
  int stale_after_heartbeats = 5;
  SimTime idle_park_after = 15 * kSec;///< Idle time before deep sleep.
  SimTime drain_grace = 30 * kMinute; ///< Max drain time past last arrival.
  double usage_jitter = 0.02;         ///< Run-to-run usage noise (fraction).
  /// Non-preemptive kernel blocking: a latency-critical pod's progress is
  /// further slowed by 1 + tax × (aggregate SM demand of co-resident batch
  /// pods). Short inference kernels queue behind long batch kernels; batch
  /// pods barely notice the reverse (§I: GPUs cannot preempt).
  double lc_blocking_tax = 2.5;
  double telemetry_noise = 0.005;     ///< NVML measurement noise (sigma).
  std::uint64_t seed = 42;
  /// Event-lane shards for the tick hot path. Nodes are partitioned across
  /// lanes (contiguous blocks unless lane_assignment overrides); pod
  /// advance and telemetry sampling run lane-parallel, with every global
  /// effect committed through a deterministic (time, seq, partition)
  /// barrier merge — any lane count, and any node→lane permutation,
  /// reproduces the single-lane run bit-for-bit.
  int lanes = 1;
  /// Optional explicit node→lane map (size == nodes, each entry < lanes).
  /// Empty picks contiguous blocks. Pods sharing a GPU always share a lane
  /// because the partition is by node.
  std::vector<int> lane_assignment{};
  /// Heartbeat rows retained per GPU (the node-local time-series store's
  /// retention policy). The default preserves the historical capacity;
  /// datacenter-scale runs shrink it to bound memory — results are
  /// unchanged as long as it covers the widest scheduler lookback window
  /// (window / tick rows; 500 at the defaults).
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

  /// Registers the workload; call once before run().
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
  /// Event lanes the tick hot path is sharded into (1 = sequential).
  [[nodiscard]] std::size_t lane_count() const noexcept {
    return shard_.lanes();
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
  /// Dense index of a GPU (0..gpu_count), for metrics addressing.
  [[nodiscard]] std::size_t gpu_dense_index(GpuId id) const;

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
  [[nodiscard]] const fault::FaultPlan& fault_plan() const noexcept {
    return fault_plan_;
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
  void advance_fused();  ///< Single-lane advance: one pass, no barrier.
  void start_ready_pods();
  void crash_pod(Pod& pod);
  /// Global bookkeeping halves of complete/crash — run at barrier-commit
  /// time, after the lane halves (detach + state edge) already ran.
  void commit_complete(Pod& pod);
  void commit_crash(Pod& pod);
  void sample_figure_metrics();
  void maybe_park_idle_gpus();
  [[nodiscard]] SchedulingContext make_context();
  void apply_fault(const fault::FaultEvent& event);
  void recover_node(NodeId id);
  /// Spot-reclaim landing after the notice grace: the preemptible node goes
  /// down exactly like a crash (evictions through the kEvicted requeue path)
  /// and recovers after `duration` (0 = never).
  void reclaim_node(NodeId id, SimTime duration);
  void detect_stale_transitions(SchedulingContext& ctx);
  void update_tick_metrics(double cluster_watts);
  [[nodiscard]] bool all_terminal() const;
  [[nodiscard]] gpu::Usage jittered(const gpu::Usage& usage, Rng& rng) const;
  /// Mirrors a pod's state into the packed table. In lane context this
  /// writes the pod's own byte only — distinct pods are distinct memory
  /// locations, so concurrent lane calls never race.
  void note_state(const Pod& p) noexcept {
    pod_states_[static_cast<std::size_t>(p.id().value)] =
        static_cast<std::uint8_t>(p.state());
  }
  // Bitmap/epoch bookkeeping for device mutations. Serial-phase only: lanes
  // never call these (the lane advance defers its detaches to the barrier
  // drain, which runs them serially via the PodEffect's captured GpuId).
  void note_attach(GpuId g) noexcept {
    const auto i = static_cast<std::size_t>(g.value);
    occupied_bits_[i >> 6] |= std::uint64_t{1} << (i & 63);
    parked_bits_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));  // attach wakes
    ++device_epoch_;
  }
  void note_detach(GpuId g) noexcept {
    const auto i = static_cast<std::size_t>(g.value);
    if (devices_[i]->totals().residents == 0) {
      occupied_bits_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }
    ++device_epoch_;
  }
  void note_parked(GpuId g) noexcept {
    const auto i = static_cast<std::size_t>(g.value);
    parked_bits_[i >> 6] |= std::uint64_t{1} << (i & 63);
    ++device_epoch_;
  }

  ClusterConfig config_;
  Scheduler* scheduler_;
  sim::Simulation sim_;
  Rng rng_;

  std::vector<std::unique_ptr<gpu::GpuNode>> nodes_;
  /// Backs every node db's telemetry rings (declared before dbs_ so it
  /// outlives them): one shared huge-page arena packs the whole
  /// datacenter's rings contiguously in node order — per-node arenas would
  /// never fill a huge page (a small node's rings are ~KBs).
  core::PageArena telemetry_arena_;
  std::vector<std::unique_ptr<telemetry::TimeSeriesDb>> dbs_;
  std::vector<telemetry::HeartbeatSampler> samplers_;
  telemetry::UtilizationAggregator aggregator_;
  // GpuId -> (node index, gpu index within node); ids are dense from 0.
  std::vector<std::pair<std::size_t, std::size_t>> gpu_index_;
  // GpuId -> device, flat. Stable: GpuNode owns devices by unique_ptr.
  std::vector<gpu::GpuDevice*> devices_;
  /// Bumped by note_attach/note_detach/note_parked and ECC retirement —
  /// every change to the live device fields the aggregator's views depend
  /// on (parked/residents/usable capacity). The aggregator watches it via
  /// set_live_epoch to skip its O(slots) live-bits diff on quiet queries.
  std::uint64_t device_epoch_ = 0;
  std::vector<std::uint64_t> occupied_bits_;  ///< see occupied_gpu_bits()
  std::vector<std::uint64_t> parked_bits_;    ///< see parked_gpu_bits()

  // Pods live in a slab arena: stable addresses, one bulk allocation per
  // slab instead of one heap node per pod (10k-node runs create hundreds of
  // thousands of relaunch-churned pods).
  core::SlabArena<Pod> pod_arena_;
  std::vector<Pod*> pods_;
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
  std::vector<fault::FaultNotice> fault_feed_;
  std::vector<bool> gpu_stale_;  ///< Previous-tick staleness, for edges.
  bool has_preemptible_ = false;  ///< Any node is spot capacity.
  SimTime last_arrival_ = 0;
  std::size_t completed_ = 0;
  std::uint64_t pod_rng_counter_ = 0;
  std::uint64_t ticks_ = 0;

  // ---- Sharded tick machinery ----
  /// A pod lifecycle edge detected inside a lane, deferred to the barrier.
  struct PodEffect {
    PodId id;
    bool crashed = false;  ///< false → completed
    /// Device the pod detached from, captured in the lane before the state
    /// edge (Pod::crash clears gpu_). The serial drain applies the
    /// bitmap/epoch update the lane could not.
    GpuId gpu{};
  };
  /// Per-active-pod advance plan. Lanes fill their own pods' slots in
  /// parallel (dt, run, needs_stream); a tiny serial prefix scan then
  /// assigns rng_stream ranks in canonical active_ order, reproducing the
  /// exact stream sequence of the old sequential pre-pass.
  struct AdvanceSlot {
    SimTime dt = 0;
    std::uint64_t rng_stream = 0;
    std::uint8_t run = 0;           ///< Pod was kRunning at tick entry.
    std::uint8_t keep = 0;          ///< Pod stays in active_ after this tick.
    std::uint8_t needs_stream = 0;  ///< Running and not finishing: draws jitter.
  };
  sim::ShardPlan shard_;  ///< node index → lane
  std::unique_ptr<sim::LaneExecutor> lane_exec_;  ///< null when lanes == 1
  sim::BarrierMerge<PodEffect> commit_;
  // Persistent per-tick scratch: the tick hot loop never reallocates.
  std::vector<double> slowdown_scratch_;
  std::vector<double> batch_sm_scratch_;
  std::vector<AdvanceSlot> advance_slots_;
  std::vector<std::vector<std::uint32_t>> lane_members_;
  std::vector<PodId> still_active_scratch_;
  std::vector<std::size_t> lane_sampled_;

  // Observability (all optional, never sampled by the simulation itself).
  obs::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Histogram* sched_profile_ = nullptr;  ///< sched.on_schedule_ns
  obs::Histogram* advance_profile_ = nullptr;  ///< cluster.advance_ns
  obs::Histogram* scrape_profile_ = nullptr;   ///< telemetry.scrape_ns
  obs::Histogram* merge_profile_ = nullptr;    ///< cluster.barrier_merge_ns
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
