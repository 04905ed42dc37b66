#include "cluster/cluster.hpp"

#include <algorithm>
#include <bit>

#include "core/check.hpp"
#include "gpu/device_model.hpp"
#include "obs/profile.hpp"

namespace knots::cluster {

using obs::EventKind;

namespace {
/// Figure-metrics sampling cadence.
constexpr SimTime kMetricsPeriod = 1 * kSec;
static_assert(kMetricsPeriod >= kTick && kMetricsPeriod % kTick == 0,
              "figure metrics sample on whole ticks");
constexpr SimTime kRelaunchDelay = 3 * kSec;  ///< Crash → rejoin pending queue.
/// Node-death eviction → rejoin pending queue. Longer than the crash
/// relaunch delay: kubelet must notice the node is gone before pods are
/// rescheduled.
constexpr SimTime kEvictRelaunchDelay = 5 * kSec;
/// Missed heartbeats before the aggregator marks a GPU's series stale.
constexpr int kStaleAfterHeartbeats = 5;
constexpr SimTime kIdleParkAfter = 15 * kSec;  ///< Idle time before deep sleep.
constexpr double kUsageJitter = 0.02;  ///< Run-to-run usage noise (fraction).
}  // namespace

Cluster::Cluster(const ClusterConfig& config, Scheduler& scheduler)
    : config_(config), scheduler_(&scheduler), rng_(config.seed) {
  KNOTS_CHECK(config_.gpus_per_node > 0);
  // The per-node build list. Homogeneous (the historical default, taken
  // whenever node_classes is empty) repeats node_spec; a heterogeneous
  // cluster expands its classes in list order, so node ids are contiguous
  // per class and the layout is deterministic in the config alone.
  std::vector<gpu::NodeSpec> node_specs;
  if (config_.node_classes.empty()) {
    KNOTS_CHECK(config_.nodes > 0);
    gpu::NodeSpec node_spec = config_.node_spec;
    node_spec.gpus_per_node = config_.gpus_per_node;
    node_specs.assign(static_cast<std::size_t>(config_.nodes), node_spec);
  } else {
    for (const NodeClass& cls : config_.node_classes) {
      const auto model = gpu::find_device_model(cls.device_model);
      KNOTS_CHECK_MSG(model.has_value(),
                      "node class names an unknown device model");
      KNOTS_CHECK_MSG(cls.count > 0, "node class must have a positive count");
      gpu::NodeSpec node_spec = config_.node_spec;
      node_spec.gpu = model->gpu;
      node_spec.gpus_per_node =
          cls.gpus_per_node > 0 ? cls.gpus_per_node : config_.gpus_per_node;
      node_spec.preemptible = cls.preemptible;
      node_spec.spot_notice = cls.spot_notice;
      node_specs.insert(node_specs.end(), static_cast<std::size_t>(cls.count),
                        node_spec);
    }
    // Keep node_count() (and everything downstream: fault validation,
    // fabric sizing) consistent with the expanded class list.
    config_.nodes = static_cast<int>(node_specs.size());
  }

  std::int32_t next_gpu = 0;
  for (int n = 0; n < config_.nodes; ++n) {
    const gpu::NodeSpec& node_spec = node_specs[static_cast<std::size_t>(n)];
    nodes_.push_back(std::make_unique<gpu::GpuNode>(NodeId{n}, node_spec,
                                                    next_gpu));
    dbs_.push_back(std::make_unique<telemetry::TimeSeriesDb>(
        *nodes_.back(), rng_.fork(1000 + static_cast<std::uint64_t>(n)),
        config_.telemetry_noise, config_.telemetry_retention,
        &telemetry_arena_));
    for (int g = 0; g < node_spec.gpus_per_node; ++g) {
      gpu_index_.emplace_back(static_cast<std::size_t>(n),
                              static_cast<std::size_t>(g));
      ++next_gpu;
    }
  }
  devices_.reserve(gpu_index_.size());
  compute_factor_.reserve(gpu_index_.size());
  for (const auto& [n, g] : gpu_index_) {
    devices_.push_back(&nodes_[n]->gpu(g));
    compute_factor_.push_back(nodes_[n]->gpu(g).spec().compute_factor);
  }
  for (const auto& node : nodes_) {
    if (node->spec().preemptible) has_preemptible_ = true;
  }
  for (const TenantQuotaSpec& quota : config_.tenant_quotas) {
    ledger_.set_quota(quota);
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    aggregator_.register_node(*nodes_[n], *dbs_[n]);
  }
  metrics_ = std::make_unique<MetricsCollector>(gpu_index_.size());
  occupied_bits_.assign((gpu_index_.size() + 63) / 64, 0);
  parked_bits_.assign((gpu_index_.size() + 63) / 64, 0);
  gpu_last_busy_.assign(gpu_index_.size(), 0);
  injector_ = std::make_unique<fault::FaultInjector>(nodes_.size());
  gpu_stale_.assign(gpu_index_.size(), false);
  aggregator_.set_staleness_horizon(kStaleAfterHeartbeats * kTick);

  if (!config_.fabric.empty()) {
    fabric_ = std::make_unique<net::Fabric>(config_.fabric, config_.nodes);
    fabric_->bind(&sim_);
    fabric_->set_observer(this);
  }
}

void Cluster::set_fault_plan(fault::FaultPlan plan) {
  std::vector<bool> preemptible(nodes_.size(), false);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    preemptible[n] = nodes_[n]->spec().preemptible;
  }
  plan.validate(config_.nodes,
                fabric_ ? fabric_->link_names() : std::vector<std::string>{},
                preemptible);
  fault_plan_ = std::move(plan);
}

// Fabric events fan out through the cluster observer chain (digest, audit)
// and the trace. The fabric only fires these while non-inert, so inert runs
// stay bit-identical to fabric-free ones.
void Cluster::on_flow_start(std::uint64_t flow, net::FlowKind kind,
                            int src_node, int dst_node, double mb,
                            SimTime /*now*/) {
  for (auto* o : observers_) {
    o->on_flow_start(*this, flow, static_cast<int>(kind), src_node, dst_node,
                     mb);
  }
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kFlowStart,
                   static_cast<std::int32_t>(flow), dst_node, mb,
                   net::to_string(kind));
  }
}

void Cluster::on_flow_finish(std::uint64_t flow, net::FlowKind kind,
                             bool contended, SimTime /*now*/) {
  for (auto* o : observers_) o->on_flow_finish(*this, flow, contended);
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kFlowFinish,
                   static_cast<std::int32_t>(flow), contended ? 1 : 0, 0.0,
                   net::to_string(kind));
  }
}

void Cluster::on_link_state(std::size_t link, bool up, SimTime /*now*/) {
  for (auto* o : observers_) {
    if (up) {
      o->on_link_up(*this, link);
    } else {
      o->on_link_down(*this, link);
    }
  }
  if (trace_ != nullptr) {
    trace_->record(now(), up ? EventKind::kLinkUp : EventKind::kLinkDown,
                   static_cast<std::int32_t>(link));
  }
}

void Cluster::load(std::vector<workload::PodSpec> specs) {
  KNOTS_CHECK_MSG(pods_.empty(), "load() must be called once");
  std::sort(specs.begin(), specs.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  pods_.reserve(specs.size());
  for (auto& spec : specs) {
    KNOTS_CHECK_MSG(spec.id.value == static_cast<std::int32_t>(pods_.size()),
                    "pod ids must be dense and zero-based");
    last_arrival_ = std::max(last_arrival_, spec.arrival);
    const SimTime arrival = spec.arrival;
    const PodId id = spec.id;
    const ImageId image = profile_store_.intern(image_key(spec));
    pods_.push_back(pod_arena_.create(std::move(spec), image));
    sim_.schedule_at(arrival, [this, id] { on_arrival(id); });
  }
  pod_states_.assign(pods_.size(),
                     static_cast<std::uint8_t>(PodState::kPending));
}

void Cluster::run() {
  // Fault events land before the tick at the same timestamp: the scheduler
  // sees a consistent post-fault world in its next round.
  for (const fault::FaultEvent& event : fault_plan_.events) {
    sim_.schedule_at(event.at, [this, event] { apply_fault(event); });
  }
  // The drain deadline is evaluated per tick (not captured once) so pods
  // submitted mid-run via submit_pod() extend it.
  sim::schedule_periodic(sim_, kTick, kTick,
                         [this](SimTime now) {
                           tick();
                           return !(all_terminal() ||
                                    now >= last_arrival_ + config_.drain_grace);
                         });
  sim_.run_all();
}

PodId Cluster::submit_pod(workload::PodSpec spec) {
  const PodId id{static_cast<std::int32_t>(pods_.size())};
  spec.id = id;
  spec.arrival = std::max(spec.arrival, now());
  last_arrival_ = std::max(last_arrival_, spec.arrival);
  const SimTime arrival = spec.arrival;
  const ImageId image = profile_store_.intern(image_key(spec));
  pods_.push_back(pod_arena_.create(std::move(spec), image));
  pod_states_.push_back(static_cast<std::uint8_t>(PodState::kPending));
  sim_.schedule_at(arrival, [this, id] { on_arrival(id); });
  return id;
}

bool Cluster::finish_pod(PodId id) {
  KNOTS_CHECK(id.valid() && static_cast<std::size_t>(id.value) < pods_.size());
  auto& p = *pods_[static_cast<std::size_t>(id.value)];
  if (p.state() != PodState::kRunning) return false;
  gpu_last_busy_[static_cast<std::size_t>(p.gpu().value)] = now();
  std::erase(active_, id);
  complete_pod(p);
  return true;
}

const Pod& Cluster::pod(PodId id) const {
  KNOTS_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value) < pods_.size());
  return *pods_[static_cast<std::size_t>(id.value)];
}

std::vector<GpuId> Cluster::all_gpus() const {
  std::vector<GpuId> out;
  out.reserve(gpu_index_.size());
  for (std::size_t i = 0; i < gpu_index_.size(); ++i) {
    out.push_back(GpuId{static_cast<std::int32_t>(i)});
  }
  return out;
}

NodeId Cluster::node_of_gpu(GpuId id) const {
  const auto [n, g] = gpu_index_.at(static_cast<std::size_t>(id.value));
  return nodes_[n]->id();
}

NodeHealth Cluster::node_health(NodeId id) const {
  return injector_->node_down(id) ? NodeHealth::kDown : NodeHealth::kHealthy;
}

double Cluster::total_power_watts() const {
  double watts = 0;
  for (const auto& node : nodes_) watts += node->power_watts();
  return watts;
}

bool Cluster::place(PodId id, GpuId gpu_id, double provisioned_mb) {
  auto& p = *pods_.at(static_cast<std::size_t>(id.value));
  if (p.state() != PodState::kPending) return false;
  auto it = std::find(pending_.begin(), pending_.end(), id);
  if (it == pending_.end()) return false;

  const auto [node_idx, gpu_in_node] =
      gpu_index_.at(static_cast<std::size_t>(gpu_id.value));
  if (!nodes_[node_idx]->online()) return false;
  // Central quota admission: whichever scheduler asked, a tenant over its
  // caps cannot place. The pod stays pending and retries when quota frees.
  if (ledger_.enforcing() &&
      !ledger_.admits(p.spec().tenant, provisioned_mb)) {
    ledger_.note_rejection(p.spec().tenant);
    return false;
  }
  auto& dev = device(gpu_id);
  if (!dev.attach(id, provisioned_mb)) return false;
  ledger_.charge(p.spec().tenant, id, provisioned_mb);
  note_attach(gpu_id);
  pending_.erase(it);

  const auto cache_key = std::make_pair(node_idx, p.spec().app);
  // Inference services (queries and serving replicas alike) are long-lived
  // deployments whose images are pre-pulled (§V-B: only the first-ever
  // query pays the docker pull); batch images cold-start once per node.
  const bool cached = p.spec().klass != workload::PodClass::kBatch ||
                      image_cache_.contains(cache_key);
  image_cache_.insert(cache_key);
  const SimTime start_latency = cached ? kWarmStart : kColdStart;
  p.begin_start(gpu_id, provisioned_mb, now(), now() + start_latency);
  note_state(p);
  active_.push_back(id);
  starting_.push_back(id);
  gpu_last_busy_[static_cast<std::size_t>(gpu_id.value)] = now();
  for (auto* o : observers_) o->on_place(*this, id, gpu_id, provisioned_mb);
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kPlace, id.value, gpu_id.value,
                   provisioned_mb);
  }
  if (placements_counter_ != nullptr) placements_counter_->inc();

  // Cold pulls on a live fabric are real registry→node flows: readiness is
  // gated on the transfer landing (never earlier than the base cold-start).
  // The callback guards against the pod having moved on — an eviction or
  // crash mid-pull invalidates the transfer.
  if (!cached && fabric_active() && config_.image_mb > 0) {
    p.set_ready_at(kNever);
    const SimTime floor_ready = now() + start_latency;
    const int restarts = p.crash_count() + p.evict_count();
    fabric_->start_flow(
        net::FlowKind::kImagePull, net::Fabric::kRegistry,
        static_cast<int>(node_idx), config_.image_mb,
        [this, id, gpu_id, floor_ready, restarts](SimTime t) {
          auto& pod_ref = *pods_[static_cast<std::size_t>(id.value)];
          if (pod_ref.state() != PodState::kStarting) return;
          if (pod_ref.gpu() != gpu_id) return;
          if (pod_ref.crash_count() + pod_ref.evict_count() != restarts) {
            return;
          }
          pod_ref.set_ready_at(std::max(floor_ready, t));
        });
  }
  return true;
}

bool Cluster::resize_pod(PodId id, double provisioned_mb) {
  auto& p = *pods_.at(static_cast<std::size_t>(id.value));
  if (p.state() != PodState::kRunning && p.state() != PodState::kStarting) {
    return false;
  }
  // Growth is quota-gated like a fresh placement; shrinking always admits
  // (it frees quota).
  const double growth = provisioned_mb - p.provisioned_mb();
  if (growth > 0 && ledger_.enforcing() &&
      !ledger_.admits(p.spec().tenant, growth)) {
    ledger_.note_rejection(p.spec().tenant);
    return false;
  }
  if (!device(p.gpu()).resize(id, provisioned_mb)) return false;
  ledger_.recharge(id, provisioned_mb);
  p.set_provisioned_mb(provisioned_mb);
  for (auto* o : observers_) o->on_resize(*this, id, provisioned_mb);
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kResize, id.value, -1, provisioned_mb);
  }
  return true;
}

bool Cluster::park(GpuId id) {
  const auto [node_idx, gpu_in_node] =
      gpu_index_.at(static_cast<std::size_t>(id.value));
  if (!nodes_[node_idx]->online()) return false;
  if (device(id).totals().residents > 0) return false;
  record_park(id);
  return true;
}

void Cluster::record_park(GpuId id) {
  device(id).set_parked(true);
  note_parked(id);
  for (auto* o : observers_) o->on_park(*this, id);
  if (trace_ != nullptr) trace_->record(now(), EventKind::kPark, id.value);
}

void Cluster::requeue_after(PodId id, SimTime delay) {
  sim_.schedule_after(delay, [this, id] {
    auto& pod = *pods_[static_cast<std::size_t>(id.value)];
    pod.requeue();
    note_state(pod);
    pending_.push_back(id);
    for (auto* o : observers_) o->on_requeue(*this, id);
    if (trace_ != nullptr) trace_->record(now(), EventKind::kRequeue, id.value);
  });
}

void Cluster::evict_node(NodeId id) {
  auto& node = *nodes_.at(static_cast<std::size_t>(id.value));
  std::uint64_t evicted = 0;
  for (std::size_t g = 0; g < node.gpu_count(); ++g) {
    auto& dev = node.gpu(g);
    for (PodId pod_id : dev.resident_pods()) {
      auto& p = *pods_[static_cast<std::size_t>(pod_id.value)];
      dev.detach(pod_id);
      note_detach(dev.id());
      ledger_.release(pod_id);
      p.evict(now());
      note_state(p);
      ++evicted;
      for (auto* o : observers_) o->on_evict(*this, pod_id, id);
      if (trace_ != nullptr) {
        trace_->record(now(), EventKind::kEvict, pod_id.value, id.value);
      }
      requeue_after(pod_id, kEvictRelaunchDelay);
    }
  }
  std::erase_if(active_, [this](PodId pid) {
    return pods_[static_cast<std::size_t>(pid.value)]->state() ==
           PodState::kEvicted;
  });
  // Images die with the node: after recovery, pulls cold-start again.
  const auto node_idx = static_cast<std::size_t>(id.value);
  std::erase_if(image_cache_, [node_idx](const auto& key) {
    return key.first == node_idx;
  });
  injector_->note_evictions(evicted);
  if (evictions_counter_ != nullptr) evictions_counter_->inc(evicted);
}

void Cluster::add_observer(ClusterObserver* observer) {
  KNOTS_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

void Cluster::set_trace_sink(obs::TraceSink* sink) noexcept { trace_ = sink; }

void Cluster::set_metrics_registry(obs::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    sched_profile_ = nullptr;
    advance_profile_ = scrape_profile_ = nullptr;
    aggregator_.set_sort_profile(nullptr);
    sim_.set_dispatch_profile(nullptr);
    ticks_counter_ = placements_counter_ = completions_counter_ = nullptr;
    crashes_counter_ = evictions_counter_ = faults_counter_ = nullptr;
    pending_gauge_ = active_gauge_ = completed_gauge_ = nullptr;
    power_gauge_ = parked_gauge_ = nullptr;
    return;
  }
  sched_profile_ = &registry->histogram("sched.on_schedule_ns");
  // Per-phase tick breakdown (bench_scale --json reads these): pod advance
  // and telemetry scrape, plus the scheduler round / aggregator sort /
  // event dispatch timers.
  advance_profile_ = &registry->histogram("cluster.advance_ns");
  scrape_profile_ = &registry->histogram("telemetry.scrape_ns");
  aggregator_.set_sort_profile(&registry->histogram("telemetry.agg_sort_ns"));
  sim_.set_dispatch_profile(&registry->histogram("sim.dispatch_ns"));
  // Resolve every hot-path instrument once; registry handles stay valid for
  // the registry's lifetime, so per-tick paths skip the name lookup.
  ticks_counter_ = &registry->counter("cluster.ticks");
  placements_counter_ = &registry->counter("cluster.placements");
  completions_counter_ = &registry->counter("cluster.completions");
  crashes_counter_ = &registry->counter("cluster.crashes");
  evictions_counter_ = &registry->counter("cluster.evictions");
  faults_counter_ = &registry->counter("cluster.faults_injected");
  pending_gauge_ = &registry->gauge("cluster.pending_pods");
  active_gauge_ = &registry->gauge("cluster.active_pods");
  completed_gauge_ = &registry->gauge("cluster.completed_pods");
  power_gauge_ = &registry->gauge("cluster.power_watts");
  parked_gauge_ = &registry->gauge("cluster.parked_gpus");
}

void Cluster::on_arrival(PodId id) {
  pending_.push_back(id);
  if (trace_ != nullptr) trace_->record(now(), EventKind::kSubmit, id.value);
}

SchedulingContext Cluster::make_context() {
  SchedulingContext ctx;
  ctx.cluster = this;
  ctx.now = now();
  ctx.pending = &pending_;
  ctx.aggregator = &aggregator_;
  ctx.trace = trace_;
  // Exposed only while quotas are actually enforced, so policies behave
  // bit-identically on quota-free runs.
  ctx.tenants = ledger_.enforcing() ? &ledger_ : nullptr;
  return ctx;
}

void Cluster::apply_fault(const fault::FaultEvent& event) {
  const auto node_idx = static_cast<std::size_t>(event.node.value);
  // A node-crash on an already-down node is absorbed below without effect;
  // its kFaultInject record still lands, mirroring the injector's view.
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kFaultInject, event.node.value, -1,
                   event.severity, fault::to_string(event.kind));
  }
  if (faults_counter_ != nullptr) faults_counter_->inc();
  switch (event.kind) {
    case fault::FaultKind::kNodeCrash:
      take_node_down(event.node, event.duration);
      break;
    case fault::FaultKind::kGpuEccDegrade: {
      auto& node = *nodes_[node_idx];
      for (std::size_t g = 0; g < node.gpu_count(); ++g) {
        node.gpu(g).retire_memory_mb(event.severity);
      }
      injector_->note_ecc_degrade(event.node);
      break;
    }
    case fault::FaultKind::kHeartbeatLoss: {
      injector_->note_heartbeat_gap(event.node, event.at + event.duration);
      sim_.schedule_after(event.duration, [this, node = event.node] {
        if (trace_ != nullptr && !injector_->heartbeat_muted(node, now())) {
          trace_->record(now(), EventKind::kFaultRecover, node.value, -1, 0.0,
                         "heartbeat-loss");
        }
      });
      break;
    }
    case fault::FaultKind::kPcieStall: {
      injector_->note_pcie_stall(event.node, now(), event.at + event.duration,
                                 event.severity);
      sim_.schedule_after(event.duration, [this, node = event.node] {
        if (trace_ != nullptr && injector_->pcie_slowdown(node, now()) == 1.0) {
          trace_->record(now(), EventKind::kFaultRecover, node.value, -1, 0.0,
                         "pcie-stall");
        }
      });
      break;
    }
    case fault::FaultKind::kSpotReclaim: {
      // Stage 1: the reclaim *notice*. The node keeps running for its
      // spot_notice grace before the capacity actually disappears. Stage
      // 2, when the grace has elapsed, is a node crash in every observable
      // way — evictions ride the kEvicted requeue path, telemetry goes
      // dark, power drops to zero — so every conservation invariant and
      // observer contract holds unchanged.
      if (injector_->node_down(event.node)) return;
      const SimTime notice = nodes_[node_idx]->spec().spot_notice;
      sim_.schedule_after(notice,
                          [this, node = event.node, d = event.duration] {
                            take_node_down(node, d);
                          });
      break;
    }
    case fault::FaultKind::kLinkDown:
    case fault::FaultKind::kLinkDegrade:
      // set_fault_plan already validated the name against the fabric.
      KNOTS_CHECK_MSG(fabric_ != nullptr,
                      "link fault installed without a fabric");
      fabric_->apply_link_fault(event, trace_);
      break;
  }
}

void Cluster::take_node_down(NodeId id, SimTime duration) {
  // A node that is already down (overlapping crash intervals, or a crash
  // during a reclaim's notice window) absorbs the event into the
  // outstanding outage.
  if (injector_->node_down(id)) return;
  injector_->note_node_down(id);
  nodes_[static_cast<std::size_t>(id.value)]->set_online(false);
  evict_node(id);
  for (auto* o : observers_) o->on_node_down(*this, id);
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kNodeDown, id.value);
  }
  SchedulingContext ctx = make_context();
  scheduler_->on_node_down(ctx, id);
  if (duration > 0) {
    sim_.schedule_after(duration, [this, id] { recover_node(id); });
  }
}

void Cluster::recover_node(NodeId id) {
  injector_->note_node_up(id);
  nodes_[static_cast<std::size_t>(id.value)]->set_online(true);
  for (auto* o : observers_) o->on_node_up(*this, id);
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kNodeUp, id.value);
    trace_->record(now(), EventKind::kFaultRecover, id.value, -1, 0.0,
                   "node-crash");
  }
  SchedulingContext ctx = make_context();
  scheduler_->on_node_up(ctx, id);
}

void Cluster::detect_stale_transitions(SchedulingContext& ctx) {
  for (std::size_t i = 0; i < gpu_index_.size(); ++i) {
    const GpuId gpu{static_cast<std::int32_t>(i)};
    const bool is_stale = aggregator_.stale(gpu);
    if (is_stale && !gpu_stale_[i]) {
      injector_->note_stale_transition();
      scheduler_->on_telemetry_stale(ctx, gpu);
    }
    gpu_stale_[i] = is_stale;
  }
}

gpu::Usage Cluster::jittered(const gpu::Usage& usage, Rng& rng) const {
  gpu::Usage out = usage;
  const double j = 1.0 + rng.normal(0.0, kUsageJitter);
  const double f = std::clamp(j, 0.5, 1.5);
  out.sm = std::clamp(out.sm * f, 0.0, 1.2);
  out.memory_mb *= f;
  out.tx_mbps *= f;
  out.rx_mbps *= f;
  return out;
}

void Cluster::advance_running_pods() {
  // Phase A — snapshot. Slowdowns and co-resident batch SM pressure are
  // computed from the device state at tick entry, so pod advance order
  // within the tick cannot feed back into this tick's factors.
  const std::size_t gpus = gpu_index_.size();
  slowdown_scratch_.assign(gpus, 1.0);
  batch_sm_scratch_.assign(gpus, 0.0);
  const bool faults_live = injector_->any_effects();
  for (std::size_t i = 0; i < gpus; ++i) {
    slowdown_scratch_[i] =
        device(GpuId{static_cast<std::int32_t>(i)}).slowdown();
    if (faults_live) {
      slowdown_scratch_[i] *= injector_->pcie_slowdown(
          nodes_[gpu_index_[i].first]->id(), now());
    }
  }
  for (PodId id : active_) {
    const auto& p = *pods_[static_cast<std::size_t>(id.value)];
    if (p.state() == PodState::kRunning && !p.latency_critical()) {
      batch_sm_scratch_[static_cast<std::size_t>(p.gpu().value)] +=
          p.current_usage().sm;
    }
  }

  // Phase B — one pass over active_ in placement order; completions and
  // crashes are recorded inline. No pod's advance reads another pod's
  // state (the factors above were snapshotted), so the order only fixes
  // the sequence of lifecycle records and jitter streams.
  still_active_scratch_.clear();
  still_active_scratch_.reserve(active_.size());
  const SimTime tick_now = now();
  for (const PodId id : active_) {
    auto& p = *pods_[static_cast<std::size_t>(id.value)];
    if (p.state() != PodState::kRunning) {
      if (p.state() == PodState::kStarting) {
        still_active_scratch_.push_back(id);
      }
      continue;
    }
    const auto gi = static_cast<std::size_t>(p.gpu().value);
    double factor = slowdown_scratch_[gi];
    if (p.latency_critical()) {
      // Non-preemptive blocking behind co-resident batch kernels.
      factor *= 1.0 + kLcBlockingTax * batch_sm_scratch_[gi];
    }
    const auto scaled = static_cast<SimTime>(
        static_cast<double>(kTick) / factor);
    SimTime dt = std::max<SimTime>(1, scaled);
    // Device generation: a faster GPU retires proportionally more profile
    // time per wall tick. Applied after quantization so the homogeneous
    // P100 path (factor 1.0) is an exact no-op, and power-of-two factors
    // scale dt exactly (the heterogeneity metamorphic law leans on both).
    const double cf = compute_factor_[gi];
    if (cf != 1.0) {
      dt = std::max<SimTime>(
          1, static_cast<SimTime>(static_cast<double>(dt) * cf));
    }
    // A pod that will finish this tick draws no jitter; one that will
    // crash still draws (jitter is what crashes it).
    std::uint64_t stream = 0;
    if (!p.would_finish(dt)) stream = 0x9000 + pod_rng_counter_++;
    p.advance(dt);
    if (p.finished_profile()) {
      complete_pod(p);
      continue;
    }
    Rng jrng = rng_.fork(stream);
    gpu::Usage usage = jittered(p.current_usage(), jrng);
    if (p.spec().tf_greedy) {
      // TF never allocates past its own earmark, jitter or not.
      usage.memory_mb = std::min(usage.memory_mb, 0.995 * p.provisioned_mb());
    }
    if (!device(p.gpu()).set_usage(id, usage)) {
      crash_pod(p);
      continue;
    }
    gpu_last_busy_[gi] = tick_now;
    still_active_scratch_.push_back(id);
  }
  std::swap(active_, still_active_scratch_);
}

void Cluster::start_ready_pods() {
  // Sweep the starting_ list instead of all of active_. Entries whose pod
  // moved on (evicted/crashed elsewhere) are dropped here; list order is
  // placement order, which is exactly the relative order these pods hold
  // in active_, so begin_running fires in the same sequence the full
  // active_ scan produced.
  if (starting_.empty()) return;
  bool any_crashed = false;
  std::size_t w = 0;
  for (std::size_t r = 0; r < starting_.size(); ++r) {
    const PodId id = starting_[r];
    auto& p = *pods_[static_cast<std::size_t>(id.value)];
    if (p.state() != PodState::kStarting) continue;  // stale entry
    if (p.ready_at() > now()) {
      starting_[w++] = id;  // still warming up
      continue;
    }
    p.begin_running(now());
    note_state(p);
    if (trace_ != nullptr) {
      trace_->record(now(), EventKind::kStart, id.value, p.gpu().value);
    }
    if (!device(p.gpu()).set_usage(id, p.current_usage())) {
      crash_pod(p);
      any_crashed = true;
    }
  }
  starting_.resize(w);
  if (any_crashed) {
    std::erase_if(active_, [this](PodId id) {
      return pods_[static_cast<std::size_t>(id.value)]->state() ==
             PodState::kCrashed;
    });
  }
}

void Cluster::complete_pod(Pod& p) {
  const GpuId g = p.gpu();
  device(g).detach(p.id());
  p.complete(now());
  note_state(p);
  note_detach(g);
  ++completed_;
  ledger_.release(p.id());

  const auto& spec = p.spec();
  profile_store_.record_run(p.image(), spec.profile.mean_sm(),
                            spec.profile.peak_sm(),
                            spec.profile.memory_signature());

  if (p.latency_critical()) {
    QueryRecord q;
    q.arrival = spec.arrival;
    q.latency = p.completion() - spec.arrival;
    q.violated = spec.qos_latency > 0 && q.latency > spec.qos_latency;
    metrics_->record_query(q);
  } else if (spec.klass == workload::PodClass::kBatch) {
    BatchRecord b;
    b.arrival = spec.arrival;
    b.jct = p.completion() - spec.arrival;
    b.crashes = p.crash_count();
    metrics_->record_batch(b);
  }
  // kService replicas report per-request latency through knots::serve;
  // neither query nor batch-JCT metrics apply to the replica lifetime.
  for (auto* o : observers_) o->on_complete(*this, p.id());
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kComplete, p.id().value, -1,
                   p.progress());
  }
  if (completions_counter_ != nullptr) completions_counter_->inc();
}

void Cluster::crash_pod(Pod& p) {
  const GpuId g = p.gpu();
  device(g).detach(p.id());
  p.crash(now());
  note_state(p);
  note_detach(g);
  ledger_.release(p.id());
  metrics_->record_crash();
  const PodId id = p.id();
  for (auto* o : observers_) o->on_crash(*this, id);
  if (trace_ != nullptr) trace_->record(now(), EventKind::kCrash, id.value);
  if (crashes_counter_ != nullptr) crashes_counter_->inc();
  requeue_after(id, kRelaunchDelay);
}

void Cluster::sample_figure_metrics() {
  // Utilization/power figures sample the trace-replay window only; the
  // drain tail (no arrivals left) would otherwise dilute every scheduler's
  // percentiles with idle samples. Energy keeps integrating over the full
  // run (makespan differences are the point of Fig 11a).
  if (now() > last_arrival_) return;
  metrics_->add_power_sample(total_power_watts());
  for (std::size_t i = 0; i < gpu_index_.size(); ++i) {
    const auto& dev = device(GpuId{static_cast<std::int32_t>(i)});
    // Percentiles are over utilization *while serving work*: parked and
    // empty GPUs contribute no sample. This profiles how well a scheduler
    // uses the GPUs it occupies — fragmentation shows up as low in-service
    // utilization, consolidation as high.
    const bool inactive = dev.parked() || dev.totals().residents == 0;
    metrics_->sample_gpu_util(i, dev.totals().sm_util, inactive);
  }
}

void Cluster::maybe_park_idle_gpus() {
  if (!scheduler_->parks_idle_gpus()) return;
  // Park candidates are exactly the unoccupied, unparked devices — walk the
  // bitmap complement (ascending, matching the historical full scan) so the
  // sweep costs O(idle) instead of O(gpus) once the datacenter warms up.
  const std::size_t gpus = gpu_index_.size();
  for (std::size_t w = 0; w < parked_bits_.size(); ++w) {
    std::uint64_t cand = ~(occupied_bits_[w] | parked_bits_[w]);
    if (w + 1 == parked_bits_.size() && (gpus & 63) != 0) {
      cand &= (std::uint64_t{1} << (gpus & 63)) - 1;  // mask tail padding
    }
    while (cand != 0) {
      const std::size_t i =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(cand));
      cand &= cand - 1;
      if (!nodes_[gpu_index_[i].first]->online()) continue;
      if (now() - gpu_last_busy_[i] < kIdleParkAfter) continue;
      record_park(GpuId{static_cast<std::int32_t>(i)});
    }
  }
}

bool Cluster::all_terminal() const {
  return completed_ == pods_.size() && now() >= last_arrival_;
}

void Cluster::tick() {
  ++ticks_;
  {
    KNOTS_PROF_SCOPE(advance_profile_);
    advance_running_pods();
  }
  start_ready_pods();
  // Telemetry heartbeats: down or heartbeat-muted nodes stop reporting;
  // their series age toward the staleness horizon while last-known-good
  // values persist.
  aggregator_.begin_tick(now());
  std::size_t nodes_sampled = 0;
  {
    KNOTS_PROF_SCOPE(scrape_profile_);
    const bool muting = injector_->any_effects();
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      if (muting && injector_->heartbeat_muted(nodes_[n]->id(), now())) {
        continue;
      }
      dbs_[n]->sample(now());
      ++nodes_sampled;
    }
  }
  if (trace_ != nullptr) {
    trace_->record(now(), EventKind::kScrape, -1, -1,
                   static_cast<double>(nodes_sampled));
  }
  SchedulingContext ctx = make_context();
  if (injector_->any_effects()) detect_stale_transitions(ctx);
  {
    KNOTS_PROF_SCOPE(sched_profile_);
    scheduler_->on_schedule(ctx);
  }
  maybe_park_idle_gpus();

  // Energy integrates every tick; figure metrics sample at 1 s cadence.
  const double cluster_watts = total_power_watts();
  metrics_->add_energy(cluster_watts * to_seconds(kTick));
  // GPU-seconds accounting for tracked tenants (the ledger is empty — and
  // this loop skipped — on default single-tenant runs).
  if (!ledger_.empty()) {
    const double tick_seconds = to_seconds(kTick);
    for (const PodId id : active_) {
      const auto& p = *pods_[static_cast<std::size_t>(id.value)];
      if (p.state() == PodState::kRunning) {
        ledger_.accrue_gpu_seconds(p.spec().tenant, tick_seconds);
      }
    }
  }
  if ((now() / kTick) % (kMetricsPeriod / kTick) == 0) {
    sample_figure_metrics();
  }
  if (registry_ != nullptr) update_tick_metrics(cluster_watts);
  for (auto* o : observers_) o->on_tick_end(*this);
}

void Cluster::update_tick_metrics(double cluster_watts) {
  ticks_counter_->inc();
  pending_gauge_->set(static_cast<double>(pending_.size()));
  active_gauge_->set(static_cast<double>(active_.size()));
  completed_gauge_->set(static_cast<double>(completed_));
  std::size_t parked = 0;
  for (const std::uint64_t w : parked_bits_) {
    parked += static_cast<std::size_t>(std::popcount(w));
  }
  power_gauge_->set(cluster_watts);
  parked_gauge_->set(static_cast<double>(parked));
}

}  // namespace knots::cluster
