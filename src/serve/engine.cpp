#include "serve/engine.hpp"

#include <algorithm>
#include <string>

#include "core/check.hpp"
#include "core/percentile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"
#include "workload/workload_spec.hpp"

namespace knots::serve {

namespace {

// Serve-digest record tags (disjoint from verify::RunDigest::Tag, which
// covers cluster lifecycle records 0x01–0x09).
constexpr std::uint64_t kDigestArrive = 0xA1;
constexpr std::uint64_t kDigestShed = 0xA2;
constexpr std::uint64_t kDigestExpire = 0xA3;
constexpr std::uint64_t kDigestDispatch = 0xA4;
constexpr std::uint64_t kDigestDone = 0xA5;
constexpr std::uint64_t kDigestRetry = 0xA6;
constexpr std::uint64_t kDigestScaleUp = 0xA7;
constexpr std::uint64_t kDigestScaleDown = 0xA8;

/// Arrival-stream fork family: service s draws stream kArrivalStream + s.
constexpr std::uint64_t kArrivalStreamBase = 0x5E00;

// Autoscaler cadence and capacity model.
constexpr SimTime kAutoscalePeriod = 2 * kSec;
constexpr double kAutoscaleTargetUtilization = 0.7;
/// Smooths the arrival rate and the observed batch time and fill.
constexpr double kEwmaAlpha = 0.3;
constexpr int kMaxReplicas = 8;
/// Replica container request = warm-model footprint × this headroom
/// (Knots right-sizing; replicas never use stock-TF greedy earmarks).
constexpr double kReplicaMemoryHeadroom = 1.1;

// A flash crowd's spike starts and lasts these fractions of the window.
constexpr double kSpikeStartFrac = 0.5;
constexpr double kSpikeLengthFrac = 0.1;

std::unique_ptr<workload::ArrivalProcess> make_process(
    const ServingConfig& config, const ServiceConfig& svc) {
  const auto& a = config.arrivals;
  switch (a.shape) {
    case ArrivalShape::kPoisson:
      return std::make_unique<workload::PoissonArrivals>(svc.qps);
    case ArrivalShape::kDiurnal:
      return std::make_unique<workload::DiurnalArrivals>(svc.qps,
                                                         a.diurnal_amplitude);
    case ArrivalShape::kFlashCrowd: {
      const auto spike_at = static_cast<SimTime>(
          static_cast<double>(config.window) * kSpikeStartFrac);
      const auto spike_len = static_cast<SimTime>(
          static_cast<double>(config.window) * kSpikeLengthFrac);
      return std::make_unique<workload::FlashCrowdArrivals>(
          svc.qps, a.spike_multiplier, spike_at, spike_len);
    }
  }
  return std::make_unique<workload::PoissonArrivals>(svc.qps);
}

}  // namespace

ServingEngine::ServingEngine(cluster::Cluster& cluster,
                             const ServingConfig& config, Rng rng)
    : cluster_(cluster),
      sim_(cluster.engine()),
      config_(config),
      rng_(rng),
      window_(config.window) {
  KNOTS_CHECK_MSG(!config_.services.empty(),
                  "serving config needs at least one service");
  KNOTS_CHECK(window_ > 0);
  // Replicas outlive the window by the full drain grace; teardown retires
  // them long before the profile runs out.
  replica_lifetime_ = window_ + cluster_.config().drain_grace;
  teardown_deadline_ = window_ + cluster_.config().drain_grace;
  services_.reserve(config_.services.size());
  for (const ServiceConfig& svc : config_.services) {
    KNOTS_CHECK(svc.qps >= 0.0);
    KNOTS_CHECK(svc.slo > 0);
    const SimTime batch_latency =
        workload::inference_latency(svc.service, svc.max_batch);
    ServiceState state{
        svc, ServiceQueue(svc.max_batch, svc.batch_timeout),
        AutoscalerModel(kAutoscaleTargetUtilization, kEwmaAlpha,
                        svc.min_replicas, kMaxReplicas)};
    // §V-B floor: heavyweight services get a proportional SLO rather than
    // an unmeetable one (identical to ServiceSpec::qos_target for queries).
    state.effective_slo =
        std::max(svc.slo, 3 * batch_latency / 2 + 30 * kMsec);
    state.ewma_batch_us = static_cast<double>(batch_latency);
    state.ewma_fill = static_cast<double>(svc.max_batch);
    services_.push_back(std::move(state));
  }
}

void ServingEngine::set_metrics_registry(obs::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) return;
  offered_counter_ = &registry->counter("serve.requests_offered");
  admitted_counter_ = &registry->counter("serve.requests_admitted");
  shed_counter_ = &registry->counter("serve.requests_shed");
  expired_counter_ = &registry->counter("serve.requests_expired");
  served_counter_ = &registry->counter("serve.requests_served");
  batches_counter_ = &registry->counter("serve.batches_dispatched");
  replicas_gauge_ = &registry->gauge("serve.replicas");
  queue_gauge_ = &registry->gauge("serve.queue_depth");
  latency_hist_ = &registry->histogram("serve.latency_ms");
}

void ServingEngine::prime() {
  KNOTS_CHECK_MSG(!primed_, "ServingEngine::prime() is single-shot");
  primed_ = true;

  // Arrival streams: one independent fork per service, pre-generated so the
  // stream depends only on (config, seed).
  for (std::size_t s = 0; s < services_.size(); ++s) {
    const auto process = make_process(config_, services_[s].cfg);
    const auto arrivals =
        process->generate(window_, rng_.fork_at(kArrivalStreamBase, s));
    for (const SimTime t : arrivals) {
      const auto idx = static_cast<std::uint32_t>(requests_.size());
      Request r;
      r.id = idx;
      r.service = static_cast<std::uint16_t>(s);
      r.arrival = t;
      r.deadline = t + services_[s].effective_slo;
      requests_.push_back(r);
      sim_.schedule_at(t, [this, idx] { on_arrival(idx); });
    }
  }

  // Initial replica sets (arrival 0; the scheduler places them at the
  // first tick like any other pending pod).
  for (std::size_t s = 0; s < services_.size(); ++s) {
    for (int i = 0; i < services_[s].cfg.min_replicas; ++i) {
      launch_replica(s);
    }
    services_[s].peak_replicas = alive_replicas(services_[s]);
  }

  // Autoscaler cadence (stops at the window end; teardown owns the tail).
  if (config_.autoscale) {
    sim::schedule_periodic(sim_, kAutoscalePeriod, kAutoscalePeriod,
                           [this](SimTime now) {
                             autoscale_round(now);
                             return now < window_;
                           });
  }

  // Pump cadence: one serial poll per cluster tick.
  sim::schedule_periodic(sim_, cluster::kTick, cluster::kTick,
                         [this](SimTime now) { return pump(now); });
}

int ServingEngine::usable_replicas(const ServiceState& s) const {
  int n = 0;
  for (const Replica& r : s.replicas) {
    if (r.retiring) continue;
    const auto state = cluster_.pod(r.pod).state();
    if (state == cluster::PodState::kStarting ||
        state == cluster::PodState::kRunning) {
      ++n;
    }
  }
  return n;
}

int ServingEngine::alive_replicas(const ServiceState& s) const {
  int n = 0;
  for (const Replica& r : s.replicas) {
    if (r.retiring) continue;
    if (cluster_.pod(r.pod).state() != cluster::PodState::kCompleted) ++n;
  }
  return n;
}

double ServingEngine::contention_factor(PodId pod) const {
  const cluster::Pod& p = cluster_.pod(pod);
  if (p.state() != cluster::PodState::kRunning) return 1.0;
  const auto& dev = cluster_.device(p.gpu());
  const auto totals = dev.totals();
  const double own_sm = p.current_usage().sm;
  const double co_sm = std::max(0.0, totals.sm_util - own_sm);
  // Same non-preemptive blocking model the cluster applies to LC pods.
  return dev.slowdown() * (1.0 + cluster::kLcBlockingTax * co_sm);
}

void ServingEngine::on_arrival(std::uint32_t request_index) {
  Request& r = requests_[request_index];
  const auto s_idx = static_cast<std::size_t>(r.service);
  ServiceState& s = services_[s_idx];
  const SimTime now = sim_.now();

  digest_.mix_u64(kDigestArrive);
  digest_.mix_u64(static_cast<std::uint64_t>(now));
  digest_.mix_u64(r.id);
  digest_.mix_u64(r.service);
  if (trace_ != nullptr) {
    trace_->record(now, obs::EventKind::kRequestArrive,
                   static_cast<std::int32_t>(r.id),
                   static_cast<std::int32_t>(s_idx));
  }
  if (offered_counter_ != nullptr) offered_counter_->inc();
  ++s.arrivals_since_scale;

  // Predict with the *observed* (contention-inclusive) batch time, not the
  // datasheet latency — under harvest pressure they differ severalfold.
  const SimTime predicted = predict_completion(
      now, s.queue.depth(), usable_replicas(s), s.cfg.max_batch,
      s.cfg.batch_timeout, static_cast<SimTime>(s.ewma_batch_us));
  if (predicted > r.deadline) {
    r.outcome = RequestOutcome::kShed;
    digest_.mix_u64(kDigestShed);
    digest_.mix_u64(r.id);
    if (trace_ != nullptr) {
      trace_->record(now, obs::EventKind::kRequestShed,
                     static_cast<std::int32_t>(r.id),
                     static_cast<std::int32_t>(s_idx));
    }
    if (shed_counter_ != nullptr) shed_counter_->inc();
    return;
  }
  if (admitted_counter_ != nullptr) admitted_counter_->inc();
  s.queue.push(r.id, now);
  // The batch this request joins dispatches on size — checked right away —
  // or on this timeout.
  sim_.schedule_at(now + s.cfg.batch_timeout,
                   [this, s_idx] { try_dispatch(s_idx); });
  try_dispatch(s_idx);
  update_gauges();
}

void ServingEngine::try_dispatch(std::size_t service) {
  ServiceState& s = services_[service];
  const SimTime now = sim_.now();
  while (s.queue.ripe(now)) {
    // Least-contended idle running replica (the front-end balancer routes
    // to the quietest backend); launch order breaks ties deterministically.
    std::size_t replica_index = s.replicas.size();
    double best_contention = 0.0;
    for (std::size_t i = 0; i < s.replicas.size(); ++i) {
      const Replica& rep = s.replicas[i];
      if (rep.busy || rep.retiring) continue;
      if (cluster_.pod(rep.pod).state() != cluster::PodState::kRunning) {
        continue;
      }
      const double c = contention_factor(rep.pod);
      if (replica_index == s.replicas.size() || c < best_contention) {
        replica_index = i;
        best_contention = c;
      }
    }
    if (replica_index == s.replicas.size()) return;  // nobody free yet

    std::vector<std::uint32_t> batch = s.queue.form_batch();
    // Deadline-passed requests are dropped at the door of the GPU (the
    // client has long since timed out), and so are *doomed* ones, whose
    // estimated completion already misses the deadline. The doom check
    // uses the EWMA estimate, not the exact service time: decisions see
    // estimates, physics sees actuals.
    const auto estimated_done = now + static_cast<SimTime>(s.ewma_batch_us);
    std::size_t w = 0;
    for (const std::uint32_t id : batch) {
      Request& r = requests_[id];
      if (now >= r.deadline || estimated_done > r.deadline) {
        r.outcome = RequestOutcome::kExpired;
        r.completion = now;
        digest_.mix_u64(kDigestExpire);
        digest_.mix_u64(r.id);
        if (trace_ != nullptr) {
          trace_->record(now, obs::EventKind::kRequestExpire,
                         static_cast<std::int32_t>(r.id),
                         static_cast<std::int32_t>(service));
        }
        if (expired_counter_ != nullptr) expired_counter_->inc();
        continue;
      }
      batch[w++] = id;
    }
    batch.resize(w);
    if (batch.empty()) continue;  // everything expired; poll again

    Replica& rep = s.replicas[replica_index];
    const double contention = contention_factor(rep.pod);
    const auto uncontended = static_cast<double>(workload::inference_latency(
        s.cfg.service, static_cast<int>(batch.size())));
    const auto service_time = std::max<SimTime>(
        1, static_cast<SimTime>(uncontended * contention));

    rep.busy = true;
    ++s.batches;
    s.batched_requests += batch.size();
    // Every batch feeds the observed service-time and fill estimators.
    s.ewma_batch_us = kEwmaAlpha * static_cast<double>(service_time) +
                      (1.0 - kEwmaAlpha) * s.ewma_batch_us;
    s.ewma_fill = kEwmaAlpha * static_cast<double>(batch.size()) +
                  (1.0 - kEwmaAlpha) * s.ewma_fill;
    digest_.mix_u64(kDigestDispatch);
    digest_.mix_u64(static_cast<std::uint64_t>(now));
    digest_.mix_u64(static_cast<std::uint64_t>(service));
    digest_.mix_u64(static_cast<std::uint64_t>(rep.pod.value));
    digest_.mix_u64(batch.size());
    // The record's former degraded-model flag, always 0 now: mixing it
    // keeps every serve digest and golden bit-identical.
    digest_.mix_u64(0);
    digest_.mix_u64(static_cast<std::uint64_t>(service_time));
    if (trace_ != nullptr) {
      trace_->record(now, obs::EventKind::kBatchDispatch, rep.pod.value,
                     static_cast<std::int32_t>(service),
                     static_cast<double>(batch.size()));
    }
    if (batches_counter_ != nullptr) batches_counter_->inc();

    sim_.schedule_after(service_time, [this, service, replica_index,
                                       moved = std::move(batch)]() mutable {
      on_batch_done(service, replica_index, std::move(moved));
    });
  }
}

void ServingEngine::record_served(Request& r, SimTime now) {
  r.completion = now;
  r.outcome = RequestOutcome::kCompleted;
  digest_.mix_u64(kDigestDone);
  digest_.mix_u64(r.id);
  digest_.mix_u64(static_cast<std::uint64_t>(r.latency()));
  if (trace_ != nullptr) {
    trace_->record(now, obs::EventKind::kRequestDone,
                   static_cast<std::int32_t>(r.id),
                   static_cast<std::int32_t>(r.service),
                   static_cast<double>(r.latency()) / 1000.0);
  }
  if (served_counter_ != nullptr) served_counter_->inc();
  if (latency_hist_ != nullptr) {
    latency_hist_->record(static_cast<double>(r.latency()) / 1000.0);
  }
}

void ServingEngine::on_batch_done(std::size_t service,
                                  std::size_t replica_index,
                                  std::vector<std::uint32_t> batch) {
  ServiceState& s = services_[service];
  Replica& rep = s.replicas[replica_index];
  rep.busy = false;
  const SimTime now = sim_.now();

  const bool replica_alive =
      cluster_.pod(rep.pod).state() == cluster::PodState::kRunning;
  if (replica_alive) {
    for (const std::uint32_t id : batch) {
      record_served(requests_[id], now);
    }
  } else {
    // The replica died mid-batch (crash, eviction, node death). The batch
    // never produced responses: re-queue at the front in original order.
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      const Request& r = requests_[*it];
      digest_.mix_u64(kDigestRetry);
      digest_.mix_u64(r.id);
      s.queue.push_front(r.id, r.arrival);
    }
  }
  try_dispatch(service);
  update_gauges();
}

PodId ServingEngine::launch_replica(std::size_t service) {
  ServiceState& s = services_[service];
  // SLO-core replicas (up to the min_replicas floor) refuse spot capacity —
  // a reclaim would drop the service below its floor mid-notice. Scale-ups
  // beyond the floor are harvest-style and may ride spot nodes.
  const bool slo_core = alive_replicas(s) < s.cfg.min_replicas;
  workload::PodSpec spec =
      workload::ServiceSpec(s.cfg.service)
          .batch(s.cfg.max_batch)
          .memory_headroom(kReplicaMemoryHeadroom)
          .qos(s.cfg.slo)
          .tenant(s.cfg.tenant)
          .avoid_preemptible(slo_core)
          .replica(replica_lifetime_);
  const PodId id = cluster_.submit_pod(std::move(spec));
  s.replicas.push_back(Replica{id, false, false});
  ++s.launched;
  return id;
}

double ServingEngine::replica_request_mb(std::size_t service) const {
  const ServiceState& s = services_[service];
  return workload::ServiceSpec(s.cfg.service)
      .batch(s.cfg.max_batch)
      .memory_headroom(kReplicaMemoryHeadroom)
      .qos(s.cfg.slo)
      .replica(replica_lifetime_)
      .requested_mb;
}

int ServingEngine::retire_replicas(std::size_t service, int count,
                                   bool scale_down_event) {
  ServiceState& s = services_[service];
  int retired = 0;
  for (auto it = s.replicas.rbegin();
       it != s.replicas.rend() && retired < count; ++it) {
    if (it->busy || it->retiring) continue;
    if (!cluster_.finish_pod(it->pod)) continue;  // pending/starting: later
    it->retiring = true;
    ++retired;
    ++s.retired;
    const SimTime now = sim_.now();
    if (scale_down_event) {
      ++s.scale_downs;
      digest_.mix_u64(kDigestScaleDown);
      digest_.mix_u64(static_cast<std::uint64_t>(now));
      digest_.mix_u64(static_cast<std::uint64_t>(service));
      digest_.mix_u64(static_cast<std::uint64_t>(it->pod.value));
      if (trace_ != nullptr) {
        trace_->record(now, obs::EventKind::kScaleDown, it->pod.value,
                       static_cast<std::int32_t>(service));
      }
    }
  }
  return retired;
}

void ServingEngine::autoscale_round(SimTime now) {
  if (now > window_) return;
  for (std::size_t s_idx = 0; s_idx < services_.size(); ++s_idx) {
    ServiceState& s = services_[s_idx];
    // Effective per-replica throughput: observed fill over observed
    // (contended) batch time. This is what a replica actually sustains on
    // this cluster right now, not the datasheet figure.
    const double observed_throughput =
        s.ewma_fill * 1e6 / std::max(s.ewma_batch_us, 1.0);
    const int target = s.autoscaler.update(s.arrivals_since_scale,
                                           kAutoscalePeriod,
                                           observed_throughput);
    s.arrivals_since_scale = 0;
    const int current = alive_replicas(s);
    if (target > current) {
      // Quota-aware scale-up: when the cluster enforces tenant quotas and
      // this service's tenant cannot pay for another replica, hold the
      // scale-up (the next round re-evaluates after quota frees).
      const auto& ledger = cluster_.tenant_ledger();
      if (ledger.enforcing() &&
          !ledger.admits(s.cfg.tenant, replica_request_mb(s_idx))) {
        s.peak_replicas = std::max(s.peak_replicas, current);
        continue;
      }
      for (int i = 0; i < target - current; ++i) {
        const PodId id = launch_replica(s_idx);
        ++s.scale_ups;
        digest_.mix_u64(kDigestScaleUp);
        digest_.mix_u64(static_cast<std::uint64_t>(now));
        digest_.mix_u64(s_idx);
        digest_.mix_u64(static_cast<std::uint64_t>(id.value));
        if (trace_ != nullptr) {
          trace_->record(now, obs::EventKind::kScaleUp, id.value,
                         static_cast<std::int32_t>(s_idx));
        }
      }
    } else if (target < current) {
      retire_replicas(s_idx, current - target, /*scale_down_event=*/true);
    }
    s.peak_replicas = std::max(s.peak_replicas, alive_replicas(s));
  }
  update_gauges();
}

bool ServingEngine::pump(SimTime now) {
  for (std::size_t s_idx = 0; s_idx < services_.size(); ++s_idx) {
    try_dispatch(s_idx);
  }
  if (now <= window_) return true;

  // Teardown: once a service's queue drains, retire every remaining
  // replica (scale-to-zero; the serving window is over).
  bool done = true;
  for (std::size_t s_idx = 0; s_idx < services_.size(); ++s_idx) {
    ServiceState& s = services_[s_idx];
    const bool drained = s.queue.empty();
    if (drained) {
      retire_replicas(s_idx, alive_replicas(s), /*scale_down_event=*/false);
    }
    if (!drained || alive_replicas(s) > 0) done = false;
    for (const Replica& r : s.replicas) {
      if (r.busy) done = false;
    }
  }
  update_gauges();
  if (done) return false;
  return now < teardown_deadline_;
}

void ServingEngine::update_gauges() {
  if (registry_ == nullptr) return;
  double replicas = 0;
  double depth = 0;
  for (const ServiceState& s : services_) {
    replicas += alive_replicas(s);
    depth += static_cast<double>(s.queue.depth());
  }
  replicas_gauge_->set(replicas);
  queue_gauge_->set(depth);
}

void ServingEngine::fill_report(ServingReport& report) const {
  // Per-service latency samples (ms), plus one aggregate pool.
  std::vector<std::vector<double>> samples(services_.size());
  std::vector<double> all;
  for (const Request& r : requests_) {
    const auto s_idx = static_cast<std::size_t>(r.service);
    ServiceStats* stats;
    while (report.services.size() <= s_idx) report.services.emplace_back();
    stats = &report.services[s_idx];
    ++stats->offered;
    switch (r.outcome) {
      case RequestOutcome::kShed:
        ++stats->shed;
        break;
      case RequestOutcome::kExpired:
        ++stats->admitted;
        ++stats->expired;
        break;
      case RequestOutcome::kCompleted: {
        ++stats->admitted;
        ++stats->completed;
        if (r.completion > r.deadline) ++stats->slo_violations;
        const double ms = static_cast<double>(r.latency()) / 1000.0;
        samples[s_idx].push_back(ms);
        all.push_back(ms);
        break;
      }
      case RequestOutcome::kPending:
        // Unresolved at drain deadline (counted admitted, nothing else).
        ++stats->admitted;
        break;
      case RequestOutcome::kDegraded:
        KNOTS_CHECK_MSG(false, "no request is served degraded");
    }
  }

  const double window_sec = static_cast<double>(window_) / 1e6;
  const auto fill_latency = [](LatencyStats& out,
                               std::vector<double>& vals) {
    if (vals.empty()) return;
    constexpr double kPs[] = {50, 99, 99.9, 100};
    const auto ps = percentiles(vals, kPs);
    out.p50_ms = ps[0];
    out.p99_ms = ps[1];
    out.p999_ms = ps[2];
    out.max_ms = ps[3];
    double sum = 0;
    for (const double v : vals) sum += v;
    out.mean_ms = sum / static_cast<double>(vals.size());
  };

  for (std::size_t s_idx = 0; s_idx < services_.size(); ++s_idx) {
    while (report.services.size() <= s_idx) report.services.emplace_back();
    ServiceStats& stats = report.services[s_idx];
    const ServiceState& s = services_[s_idx];
    stats.service = std::string(workload::service_name(s.cfg.service));
    fill_latency(stats.latency, samples[s_idx]);
    stats.achieved_qps = static_cast<double>(stats.completed) / window_sec;
    stats.peak_replicas = s.peak_replicas;
    stats.scale_ups = s.scale_ups;
    stats.scale_downs = s.scale_downs;

    report.offered += stats.offered;
    report.admitted += stats.admitted;
    report.shed += stats.shed;
    report.expired += stats.expired;
    report.completed += stats.completed;
    report.slo_violations += stats.slo_violations;
    report.batches += s.batches;
    report.replicas_launched += s.launched;
    report.replicas_retired += s.retired;
    report.scale_ups += s.scale_ups;
    report.scale_downs += s.scale_downs;
    report.offered_qps += s.cfg.qps;
  }
  fill_latency(report.latency, all);
  report.achieved_qps = static_cast<double>(report.completed) / window_sec;
  double fill_sum = 0;
  for (const ServiceState& s : services_) {
    if (s.batches > 0) {
      fill_sum += static_cast<double>(s.batched_requests) /
                  (static_cast<double>(s.batches) *
                   static_cast<double>(s.cfg.max_batch));
    }
  }
  report.mean_batch_fill =
      services_.empty() ? 0.0
                        : fill_sum / static_cast<double>(services_.size());
  report.serve_digest = digest_.value();
}

}  // namespace knots::serve
