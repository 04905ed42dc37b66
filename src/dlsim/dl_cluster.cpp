#include "dlsim/dl_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.hpp"
#include "core/percentile.hpp"
#include "dlsim/dl_policies.hpp"
#include "sched/registry.hpp"

namespace knots::dlsim {

namespace {
constexpr SimTime kCheckpointInterval = 60 * kMinute;  ///< DLT checkpoints.
constexpr double kSlicingOverhead = 0.92;  ///< Gandiva time-slice efficiency.
}  // namespace

using verify::RunDigest;
using Tag = verify::RunDigest::Tag;

std::vector<std::string> dl_policy_names() {
  std::vector<std::string> names;
  names.reserve(kDlPolicyNames.size() + 1);
  for (std::string_view name : kDlPolicyNames) names.emplace_back(name);
  // Registered policies beyond the canonical report quartet (kDlPolicyNames
  // drives run_all_policies' fixed report layout; the CLI lists everything).
  names.emplace_back("cbp-local");
  return names;
}

DlEngine::DlEngine(const DlClusterConfig& config, DlScheduler& policy,
                   std::uint64_t seed)
    : cfg_(config),
      policy_(&policy),
      policy_rng_(Rng(seed).fork(2)),
      injector_(static_cast<std::size_t>(config.nodes)) {
  KNOTS_CHECK(cfg_.nodes > 0 && cfg_.gpus_per_node > 0 && cfg_.step > 0);
  KNOTS_CHECK_MSG(static_cast<std::int64_t>(cfg_.nodes) * cfg_.gpus_per_node <=
                      std::numeric_limits<int>::max(),
                  "nodes x gpus_per_node must fit an int GPU index");
  gpu::NodeSpec node_spec;
  node_spec.gpus_per_node = cfg_.gpus_per_node;
  node_spec.gpu = cfg_.gpu;
  nodes_.reserve(static_cast<std::size_t>(cfg_.nodes));
  for (int n = 0; n < cfg_.nodes; ++n) {
    nodes_.emplace_back(NodeId{n}, node_spec, n * cfg_.gpus_per_node);
  }
  for (auto& node : nodes_) {
    for (std::size_t i = 0; i < node.gpu_count(); ++i) {
      devices_.push_back(&node.gpu(i));
    }
  }
  residents_.resize(devices_.size());
  load_count_.assign(1, static_cast<int>(devices_.size()));
  paused_until_.assign(devices_.size(), 0);
  deadline_ = 3 * horizon_;
  view_ = std::make_unique<DlSchedView>(*this);
  if (!cfg_.fabric.empty()) {
    fabric_ = std::make_unique<net::Fabric>(cfg_.fabric, cfg_.nodes);
    fabric_->bind(&sim_);
    fabric_->set_observer(this);
  }
}

DlEngine::~DlEngine() = default;

double DlEngine::footprint_bytes(double nodes, double gpus_per_node,
                                 double jobs, double queries) noexcept {
  constexpr double kPerGpu =
      sizeof(gpu::GpuDevice) + sizeof(std::unique_ptr<gpu::GpuDevice>) +
      sizeof(gpu::GpuDevice*) + sizeof(std::vector<int>) + sizeof(SimTime);
  constexpr double kPerNode = sizeof(gpu::GpuNode);
  constexpr double kPerJob = 2.0 * sizeof(DltJob);
  constexpr double kPerQuery = 2.0 * (sizeof(DliQuery) + sizeof(DliRecord));
  return nodes * (kPerNode + gpus_per_node * kPerGpu) + jobs * kPerJob +
         queries * kPerQuery;
}

void DlEngine::load(const DlWorkload& workload) {
  KNOTS_CHECK_MSG(sim_.now() == 0 && ticks_ == 0,
                  "load() must precede run()");
  jobs_ = workload.jobs;
  queries_ = workload.queries;
  horizon_ = workload.horizon;
  deadline_ = 3 * horizon_;
}

void DlEngine::set_fault_plan(const fault::FaultPlan& plan) {
  plan.validate(cfg_.nodes,
                fabric_ ? fabric_->link_names() : std::vector<std::string>{});
  plan_ = plan;
}

void DlEngine::on_link_state(std::size_t link, bool up, SimTime now) {
  comm_stale_ = true;  // a link's capacity moved
  digest_.begin_record(up ? Tag::kLinkUp : Tag::kLinkDown, now);
  digest_.mix_u64(static_cast<std::uint64_t>(link));
  if (trace_ != nullptr) {
    trace_->record(now,
                   up ? obs::EventKind::kLinkUp : obs::EventKind::kLinkDown,
                   static_cast<std::int32_t>(link));
  }
}

void DlEngine::pause_gpu(std::size_t g, SimTime until) {
  paused_until_[g] = std::max(paused_until_[g], until);
}

int DlEngine::free_gpu_count() const { return load_count_.front(); }

bool DlEngine::gpu_serviceable(std::size_t g) const {
  return gpu_online(g) && residents_[g].empty() &&
         paused_until_[g] <= sim_.now() &&
         devices_[g]->provision_fits(cfg_.job_memory_mb);
}

std::size_t DlEngine::first_serviceable_gpu() const {
  for (std::size_t g = 0; g < devices_.size(); ++g) {
    if (gpu_serviceable(g)) return g;
  }
  return npos;
}

void DlEngine::attach_job(int job_id, std::size_t g) {
  const std::size_t load_g = residents_[g].size();
  if (load_count_.size() <= load_g + 1) load_count_.resize(load_g + 2, 0);
  --load_count_[load_g];
  ++load_count_[load_g + 1];
  residents_[g].push_back(job_id);
  comm_stale_ = true;  // a gang gained a GPU
  const PodId pod{job_id};
  KNOTS_CHECK(devices_[g]->attach(pod, cfg_.job_memory_mb));
  // Usage tracks the provisioned working set, so the power model sees a
  // busy device and ECC shrink below the resident set is a capacity
  // violation. provision_fits() was checked before attach, hence usage
  // cannot exceed effective capacity here.
  KNOTS_CHECK(
      devices_[g]->set_usage(pod, gpu::Usage{1.0, cfg_.job_memory_mb, 0, 0}));
}

void DlEngine::detach_job(int job_id, std::size_t g) {
  const std::size_t load_g = residents_[g].size();
  if (std::erase(residents_[g], job_id) != 0) {
    --load_count_[load_g];
    ++load_count_[residents_[g].size()];
  }
  devices_[g]->detach(PodId{job_id});
  comm_stale_ = true;  // a gang lost a GPU
}

bool DlEngine::place(int job_id, int count, int max_share,
                     const std::function<bool(std::size_t)>& eligible) {
  auto& job = jobs_[static_cast<std::size_t>(job_id)];
  KNOTS_CHECK(!job.running);
  // Only GPUs below max_share can take the gang: when fewer exist than it
  // needs, no scan can succeed (and `eligible` is pure, so skipping its
  // calls changes nothing).
  int below = 0;
  for (std::size_t l = 0;
       l < load_count_.size() && static_cast<int>(l) < max_share; ++l) {
    below += load_count_[l];
  }
  if (below < count) return false;
  // Lowest-load GPUs first (consolidates exclusive placements, spreads
  // shared ones evenly), in index order within a load level: the order a
  // stable sort by load gives, so the choice is identical to the
  // pre-substrate simulator whenever every device is online and has room
  // (always, in a fault-free run).
  auto& chosen = place_scratch_;
  chosen.clear();
  bool full = false;
  for (int level = 0; level < max_share && !full; ++level) {
    for (std::size_t g = 0; g < devices_.size() && !full; ++g) {
      if (load(g) != level) continue;
      if (!gpu_online(g)) continue;
      if (!devices_[g]->provision_fits(cfg_.job_memory_mb)) continue;
      if (eligible && !eligible(g)) continue;
      chosen.push_back(g);
      full = static_cast<int>(chosen.size()) == count;
    }
  }
  if (static_cast<int>(chosen.size()) < count) return false;
  job.placed_gpus.clear();
  const SimTime t = sim_.now();
  for (std::size_t g : chosen) {
    attach_job(job_id, g);
    job.placed_gpus.push_back(static_cast<int>(g));
    digest_.begin_record(Tag::kPlace, t);
    digest_.mix_u64(static_cast<std::uint64_t>(job_id));
    digest_.mix_u64(static_cast<std::uint64_t>(g));
    digest_.mix_double(cfg_.job_memory_mb);
    if (trace_ != nullptr) {
      trace_->record(t, obs::EventKind::kPlace, job_id,
                     static_cast<std::int32_t>(g), cfg_.job_memory_mb);
    }
  }
  return true;
}

void DlEngine::evict(int job_id) {
  auto& job = jobs_[static_cast<std::size_t>(job_id)];
  for (int g : job.placed_gpus) {
    detach_job(job_id, static_cast<std::size_t>(g));
  }
  job.placed_gpus.clear();
}

void DlEngine::requeue(int job_id) {
  auto& job = jobs_[static_cast<std::size_t>(job_id)];
  if (!job.placed_gpus.empty()) evict(job_id);
  job.running = false;
  pending_.push_back(job_id);
  digest_.begin_record(Tag::kRequeue, sim_.now());
  digest_.mix_u64(static_cast<std::uint64_t>(job_id));
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), obs::EventKind::kRequeue, job_id);
  }
}

void DlEngine::migrate(int job_id, std::size_t from, std::size_t to) {
  auto& job = jobs_[static_cast<std::size_t>(job_id)];
  detach_job(job_id, from);
  attach_job(job_id, to);
  job.placed_gpus = {static_cast<int>(to)};
  const SimTime t = sim_.now();
  digest_.begin_record(Tag::kPlace, t);
  digest_.mix_u64(static_cast<std::uint64_t>(job_id));
  digest_.mix_u64(static_cast<std::uint64_t>(to));
  digest_.mix_double(cfg_.job_memory_mb);
  if (trace_ != nullptr) {
    trace_->record(t, obs::EventKind::kPlace, job_id,
                   static_cast<std::int32_t>(to), cfg_.job_memory_mb);
  }
  // Cross-node migrations on a live fabric drag the checkpoint over the
  // network: the target GPU stays paused for the analytic (uncontended)
  // transfer time on top of whatever pause the policy already charged. The
  // charge is folded as a flow record so digests distinguish topology-aware
  // from free migrations.
  const int src_node = node_of(from).value;
  const int dst_node = node_of(to).value;
  if (fabric_active() && cfg_.checkpoint_mb > 0 && src_node != dst_node) {
    SimTime xfer = fabric_->transfer_time(src_node, dst_node,
                                          cfg_.checkpoint_mb);
    if (xfer == kNever) xfer = kHour;  // path down: harsh but finite stall
    pause_gpu(to, t + xfer);
    const std::uint64_t flow = ++flow_seq_;
    digest_.begin_record(Tag::kFlowStart, t);
    digest_.mix_u64(flow);
    digest_.mix_u64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(dst_node)));
    digest_.mix_double(cfg_.checkpoint_mb);
    digest_.begin_record(Tag::kFlowFinish, t);
    digest_.mix_u64(flow);
    if (trace_ != nullptr) {
      trace_->record(t, obs::EventKind::kFlowStart,
                     static_cast<std::int32_t>(flow), dst_node,
                     cfg_.checkpoint_mb,
                     net::to_string(net::FlowKind::kMigration));
      trace_->record(t, obs::EventKind::kFlowFinish,
                     static_cast<std::int32_t>(flow), 0, 0.0,
                     net::to_string(net::FlowKind::kMigration));
    }
  }
}

void DlEngine::roll_back(int job_id) {
  auto& job = jobs_[static_cast<std::size_t>(job_id)];
  job.progress =
      (job.progress / kCheckpointInterval) * kCheckpointInterval;
  evict(job_id);
  job.running = false;
  ++job.restarts;
}

void DlEngine::crash_job(int job_id) {
  // Progress rolls back to the last checkpoint; the relaunched container
  // rejoins the queue at the back.
  roll_back(job_id);
  const SimTime t = sim_.now();
  digest_.begin_record(Tag::kCrash, t);
  digest_.mix_u64(static_cast<std::uint64_t>(job_id));
  if (trace_ != nullptr) {
    trace_->record(t, obs::EventKind::kCrash, job_id);
  }
  pending_.push_back(job_id);
  digest_.begin_record(Tag::kRequeue, t);
  digest_.mix_u64(static_cast<std::uint64_t>(job_id));
  if (trace_ != nullptr) {
    trace_->record(t, obs::EventKind::kRequeue, job_id);
  }
}

cluster::SchedulingContext DlEngine::make_context() {
  cluster::SchedulingContext ctx;
  ctx.now = sim_.now();
  ctx.trace = trace_;
  ctx.extension = view_.get();
  return ctx;
}

void DlEngine::schedule_round() {
  auto ctx = make_context();
  policy_->on_schedule(ctx);
}

void DlEngine::run() {
  for (const auto& event : plan_.events) {
    sim_.schedule_at(event.at, [this, event] { apply_fault(event); });
  }
  sim::schedule_periodic(sim_, 0, cfg_.step,
                         [this](SimTime t) { return tick(t); });
  sim_.run_all();
  audit(/*deep=*/true);
}

bool DlEngine::tick(SimTime t) {
  if (completed_ >= jobs_.size() || t >= deadline_) {
    // Done (or past the horizon backstop): stop the periodic chain and
    // abandon any fault events scheduled beyond the end of the run.
    sim_.request_stop();
    return false;
  }
  ++ticks_;
  // Arrivals.
  while (next_job_ < jobs_.size() && jobs_[next_job_].arrival <= t) {
    pending_.push_back(static_cast<int>(next_job_));
    if (trace_ != nullptr) {
      trace_->record(t, obs::EventKind::kSubmit, jobs_[next_job_].id);
    }
    ++next_job_;
  }
  schedule_round();
  refresh_comm_factors();
  advance_jobs(t);
  serve_queries(t);

  const double watts = cluster_watts();
  energy_joules_ += watts * to_seconds(cfg_.step);
  if (metrics_ != nullptr) {
    metrics_->gauge("dlsim.pending_depth")
        .set(static_cast<double>(pending_.size()));
    metrics_->gauge("dlsim.power_watts").set(watts);
  }
  // Deep residency/conservation audit periodically and on the final tick;
  // the cheap monotonicity check runs every tick.
  audit(/*deep=*/(ticks_ % 60) == 0);
  return true;
}

double DlEngine::job_speed(const DltJob& job, SimTime t,
                           bool fault_effects) const {
  // Progress: time-sliced GPUs deliver 1/k to each resident; a gang runs
  // at the slowest of its GPUs; paused GPUs deliver nothing; a PCIe stall
  // on the hosting node divides what remains. Multi-GPU gangs on a live
  // fabric additionally pay the per-step all-reduce (comm_factor_, which
  // refresh_comm_factors brought up to date before this tick's advance).
  double speed = 1.0;
  for (int g : job.placed_gpus) {
    const auto gi = static_cast<std::size_t>(g);
    const int load_g = load(gi);
    double s = paused_until_[gi] > t
                   ? 0.0
                   : 1.0 / static_cast<double>(std::max(1, load_g));
    if (load_g > 1) s *= kSlicingOverhead;
    if (fault_effects) s /= injector_.pcie_slowdown(node_of(gi), t);
    speed = std::min(speed, s);
  }
  // Device-class throughput: a V100/A100-class substrate retires the same
  // training step in 1/compute_factor of the P100 wall time (exact no-op
  // at the default 1.0).
  if (cfg_.gpu.compute_factor != 1.0) speed *= cfg_.gpu.compute_factor;
  if (!comm_factor_.empty()) {
    speed *= comm_factor_[static_cast<std::size_t>(job.id)];
  }
  return speed;
}

void DlEngine::refresh_comm_factors() {
  if (!fabric_active() || cfg_.allreduce_mb_per_step <= 0) {
    comm_factor_.clear();
    return;
  }
  if (!comm_stale_) return;
  comm_stale_ = false;
  comm_factor_.assign(jobs_.size(), 1.0);
  std::vector<std::vector<int>> routes;
  std::vector<std::size_t> gangs;
  std::vector<int> nodes;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const DltJob& job = jobs_[j];
    if (!job.running || job.done() || job.placed_gpus.size() < 2) continue;
    nodes.clear();
    for (int g : job.placed_gpus) {
      nodes.push_back(node_of(static_cast<std::size_t>(g)).value);
    }
    routes.push_back(fabric_->gang_route(nodes));
    gangs.push_back(j);
  }
  if (gangs.empty()) return;
  // One joint max-min share across every active gang: concurrent gangs on a
  // shared uplink or spine squeeze each other, exactly like flows do.
  const std::vector<double> rates = fabric_->stream_rates(routes);
  const double step_sec = to_seconds(cfg_.step);
  for (std::size_t i = 0; i < gangs.size(); ++i) {
    const double rate = rates[i];
    double factor = 1.0;
    if (rate <= 0.0) {
      factor = 0.0;  // path down: the gang stalls until the link recovers
    } else if (!std::isinf(rate)) {
      const double comm_sec = cfg_.allreduce_mb_per_step / rate;
      factor = step_sec / (step_sec + comm_sec);
    }
    comm_factor_[gangs[i]] = factor;
  }
}

void DlEngine::advance_jobs(SimTime t) {
  const bool fault_effects = injector_.any_effects();
  // Job order matters: completing a job evicts it, changing the loads the
  // jobs after it see within this tick.
  for (DltJob& job : jobs_) {
    if (!job.running || job.done()) continue;
    const auto delta = static_cast<SimTime>(static_cast<double>(cfg_.step) *
                                            job_speed(job, t, fault_effects));
    job.progress += delta;
    job.attained += delta;
    if (job.progress >= job.service) complete_job(job, t);
  }
}

void DlEngine::complete_job(DltJob& job, SimTime t) {
  job.completion = t + cfg_.step;
  evict(job.id);
  job.running = false;
  ++completed_;
  digest_.begin_record(Tag::kComplete, t);
  digest_.mix_u64(static_cast<std::uint64_t>(job.id));
  digest_.mix_double(static_cast<double>(job.progress));
  if (trace_ != nullptr) {
    trace_->record(t, obs::EventKind::kComplete, job.id, -1,
                   static_cast<double>(job.progress));
  }
  if (metrics_ != nullptr) metrics_->counter("dlsim.jobs_completed").inc();
}

void DlEngine::serve_queries(SimTime t) {
  while (next_query_ < queries_.size() && queries_[next_query_].arrival <= t) {
    const DliQuery& query = queries_[next_query_];
    const SimTime latency = policy_->serve_query(*view_, query);
    records_.push_back(DliRecord{query.arrival, latency, latency > query.qos});
    if (metrics_ != nullptr) {
      metrics_->counter("dlsim.queries").inc();
      metrics_->histogram("dlsim.query_latency_ms")
          .record(static_cast<double>(latency) /
                   static_cast<double>(kMsec));
      if (latency > query.qos) metrics_->counter("dlsim.qos_violations").inc();
    }
    ++next_query_;
  }
}

void DlEngine::apply_fault(const fault::FaultEvent& event) {
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), obs::EventKind::kFaultInject, event.node.value,
                   -1, event.severity, fault::to_string(event.kind));
  }
  switch (event.kind) {
    case fault::FaultKind::kNodeCrash:
      crash_node(event);
      break;
    case fault::FaultKind::kGpuEccDegrade:
      apply_ecc(event);
      break;
    case fault::FaultKind::kHeartbeatLoss:
      // The DL simulator has no telemetry pipeline to mute; the gap is
      // tallied so mixed plans stay valid across substrates.
      injector_.note_heartbeat_gap(event.node, sim_.now() + event.duration);
      break;
    case fault::FaultKind::kPcieStall:
      injector_.note_pcie_stall(event.node, sim_.now(),
                                sim_.now() + event.duration, event.severity);
      break;
    case fault::FaultKind::kSpotReclaim:
      // Unreachable: set_fault_plan validates against an empty preemptible
      // mask, which rejects every reclaim (the DL fleet has no spot nodes).
      KNOTS_CHECK_MSG(false, "spot reclaim installed on the DL engine");
      break;
    case fault::FaultKind::kLinkDown:
    case fault::FaultKind::kLinkDegrade:
      // set_fault_plan already validated the name against the fabric.
      KNOTS_CHECK_MSG(fabric_ != nullptr,
                      "link fault installed without a fabric");
      fabric_->apply_link_fault(event, trace_);
      break;
  }
}

void DlEngine::crash_node(const fault::FaultEvent& event) {
  const SimTime t = sim_.now();
  if (!injector_.node_down(event.node)) {
    injector_.note_node_down(event.node);
    const auto ni = static_cast<std::size_t>(event.node.value);
    nodes_[ni].set_online(false);
    // Evict every job with a foot on this node (gangs spanning nodes lose
    // all their GPUs), in GPU-index order, deduplicated.
    std::vector<int> victims;
    const auto first = ni * static_cast<std::size_t>(cfg_.gpus_per_node);
    for (std::size_t g = first;
         g < first + static_cast<std::size_t>(cfg_.gpus_per_node); ++g) {
      for (int j : residents_[g]) {
        if (std::find(victims.begin(), victims.end(), j) == victims.end()) {
          victims.push_back(j);
        }
      }
    }
    for (int j : victims) {
      // The relaunch restarts from the last checkpoint.
      roll_back(j);
      ++jobs_evicted_;
      digest_.begin_record(Tag::kEvict, t);
      digest_.mix_u64(static_cast<std::uint64_t>(j));
      digest_.mix_u64(static_cast<std::uint64_t>(event.node.value));
      if (trace_ != nullptr) {
        trace_->record(t, obs::EventKind::kEvict, j, event.node.value);
      }
      pending_.push_back(j);
    }
    injector_.note_evictions(victims.size());
    digest_.begin_record(Tag::kNodeDown, t);
    digest_.mix_u64(static_cast<std::uint64_t>(event.node.value));
    if (trace_ != nullptr) {
      trace_->record(t, obs::EventKind::kNodeDown, event.node.value);
    }
    auto ctx = make_context();
    policy_->on_node_down(ctx, event.node);
  }
  if (event.duration > 0) {
    sim_.schedule_at(event.at + event.duration,
                     [this, node = event.node] { recover_node(node); });
  }
}

void DlEngine::recover_node(NodeId node_id) {
  if (!injector_.node_down(node_id)) return;  // absorbed (double recovery)
  const SimTime t = sim_.now();
  injector_.note_node_up(node_id);
  nodes_[static_cast<std::size_t>(node_id.value)].set_online(true);
  digest_.begin_record(Tag::kNodeUp, t);
  digest_.mix_u64(static_cast<std::uint64_t>(node_id.value));
  if (trace_ != nullptr) {
    trace_->record(t, obs::EventKind::kNodeUp, node_id.value);
    trace_->record(t, obs::EventKind::kFaultRecover, node_id.value, -1, 0.0,
                   fault::to_string(fault::FaultKind::kNodeCrash));
  }
  auto ctx = make_context();
  policy_->on_node_up(ctx, node_id);
}

void DlEngine::apply_ecc(const fault::FaultEvent& event) {
  injector_.note_ecc_degrade(event.node);
  const auto ni = static_cast<std::size_t>(event.node.value);
  const auto first = ni * static_cast<std::size_t>(cfg_.gpus_per_node);
  for (std::size_t g = first;
       g < first + static_cast<std::size_t>(cfg_.gpus_per_node); ++g) {
    devices_[g]->retire_memory_mb(event.severity);
    // Retired pages may undercut the resident working sets: crash the
    // most-recently-attached trainers until usage fits again (the cluster's
    // capacity-violation rule, applied at the ECC edge).
    while (!residents_[g].empty() &&
           devices_[g]->totals().memory_used_mb >
               devices_[g]->effective_memory_mb() + 1e-9) {
      ++capacity_crashes_;
      crash_job(residents_[g].back());
    }
  }
}

double DlEngine::cluster_watts() const {
  double watts = 0.0;
  for (const auto& node : nodes_) watts += node.power_watts();
  return watts;
}

void DlEngine::audit(bool deep) {
  ++invariant_checks_;
  bool ok = sim_.now() >= last_audit_time_;  // time marches forward
  last_audit_time_ = sim_.now();
  if (deep) {
    // Residency index ↔ device truth, capacity bounds, offline emptiness.
    for (std::size_t g = 0; g < devices_.size(); ++g) {
      const auto totals = devices_[g]->totals();
      ok = ok && static_cast<int>(residents_[g].size()) == totals.residents;
      ok = ok && totals.memory_provisioned_mb <=
                     devices_[g]->effective_memory_mb() + 1e-6;
      ok = ok && (gpu_online(g) || residents_[g].empty());
      for (int j : residents_[g]) {
        const auto& placed =
            jobs_[static_cast<std::size_t>(j)].placed_gpus;
        ok = ok && std::find(placed.begin(), placed.end(),
                             static_cast<int>(g)) != placed.end();
      }
    }
    // Job-state partition: running ⇔ fully placed; done ⇒ idle; the
    // completion counter conserves.
    std::size_t done_count = 0;
    for (const auto& job : jobs_) {
      if (job.done()) {
        ++done_count;
        ok = ok && !job.running;
      }
      if (job.running) {
        ok = ok && static_cast<int>(job.placed_gpus.size()) == job.gpus;
      } else {
        ok = ok && job.placed_gpus.empty();
      }
    }
    ok = ok && done_count == completed_;
    for (int p : pending_) {
      ok = ok && !jobs_[static_cast<std::size_t>(p)].running;
    }
  }
  if (!ok) {
    ++invariant_violations_;
    KNOTS_CHECK_MSG(false, "DL cluster invariant violation");
  }
}

void DlEngine::advance_to(SimTime t) {
  KNOTS_CHECK(t >= sim_.now());
  sim_.schedule_at(t, [] {});
  sim_.run_all();
}

DlResult DlEngine::result() const {
  DlResult result;
  result.policy = policy_->name();
  result.dlt_total = jobs_.size();
  for (const auto& job : jobs_) {
    if (!job.done()) continue;
    result.jct_hours.push_back(
        static_cast<double>(job.completion - job.arrival) /
        static_cast<double>(kHour));
  }
  result.dlt_completed = result.jct_hours.size();
  if (!result.jct_hours.empty()) {
    double sum = 0;
    for (double j : result.jct_hours) sum += j;
    result.avg_jct_h = sum / static_cast<double>(result.jct_hours.size());
    result.median_jct_h = percentile(result.jct_hours, 50);
    result.p99_jct_h = percentile(result.jct_hours, 99);
  }
  result.queries = records_;
  for (const auto& q : records_) {
    result.dli_violations += q.violated ? 1 : 0;
  }
  const double hours =
      static_cast<double>(horizon_) / static_cast<double>(kHour);
  result.violations_per_hour =
      static_cast<double>(result.dli_violations) / hours;
  result.crash_restarts = policy_->crash_restarts();
  result.migrations = policy_->migrations();
  result.preemptions = policy_->preemptions();

  result.run_digest = digest_.value();
  result.digest_events = digest_.events();
  const auto& stats = injector_.stats();
  result.node_crashes = stats.node_crashes;
  result.node_recoveries = stats.node_recoveries;
  result.jobs_evicted = jobs_evicted_;
  result.capacity_crashes = capacity_crashes_;
  result.energy_joules = energy_joules_;
  result.mean_power_watts =
      ticks_ > 0 ? energy_joules_ / (static_cast<double>(ticks_) *
                                     to_seconds(cfg_.step))
                 : 0.0;
  result.invariant_checks = invariant_checks_;
  result.invariant_violations = invariant_violations_;
  return result;
}

DlResult run_dl_simulation(const std::string& policy,
                           const DlClusterConfig& cluster,
                           const DlWorkloadConfig& workload,
                           std::uint64_t seed, const DlRunOptions& options) {
  Rng rng(seed);
  return run_dl_simulation(policy, cluster,
                           generate_dl_workload(workload, rng.fork(1)), seed,
                           options);
}

DlResult run_dl_simulation(const std::string& policy,
                           const DlClusterConfig& cluster,
                           const DlWorkload& workload, std::uint64_t seed,
                           const DlRunOptions& options) {
  register_dl_schedulers();
  auto scheduler = sched::make_scheduler(policy);
  auto* dl = dynamic_cast<DlScheduler*>(scheduler.get());
  KNOTS_CHECK_MSG(dl != nullptr, "named scheduler is not a DL policy");
  DlEngine engine(cluster, *dl, seed);
  engine.load(workload);
  engine.set_fault_plan(options.faults);
  engine.set_trace(options.trace);
  engine.set_metrics(options.metrics);
  engine.run();
  return engine.result();
}

}  // namespace knots::dlsim
