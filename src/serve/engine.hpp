// The serving engine: open-loop request processing on the cluster's event
// loop.
//
// One engine drives every configured service: it pre-generates each
// service's arrival stream (seeded off Rng::fork_at, so streams are
// independent of each other), sheds every arrival whose predicted
// completion misses its deadline, forms dynamic batches (size-or-timeout)
// in one queue per service, dispatches them to warm serving replicas —
// cluster pods of PodClass::kService placed by the *existing* scheduler
// into harvested capacity — and applies the autoscaler's decisions through
// the cluster control plane (submit_pod / finish_pod).
//
// Batch service time is physical: the service's uncontended AppProfile
// latency at the formed batch size, scaled by the replica GPU's live
// slowdown and the non-preemptive blocking tax of co-resident batch SM
// demand (the same contention model the cluster applies to
// latency-critical pods). Crash-storm fault plans therefore hit serving
// tails exactly the way they hit query pods; a replica that dies mid-batch
// re-queues its requests at the front.
//
// Request events, batches and scale decisions interleave with cluster ticks
// in the one (time, insertion-seq) event order, so identical (config, seed)
// serving runs are bit-identical. Every request-level event and scale
// decision folds into an order-sensitive serve digest.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "serve/admission.hpp"
#include "serve/autoscaler.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/serving.hpp"
#include "verify/run_digest.hpp"

namespace knots::serve {

class ServingEngine {
 public:
  /// `cluster` must be loaded (Cluster::load) but not yet run.
  ServingEngine(cluster::Cluster& cluster, const ServingConfig& config,
                Rng rng);

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Attach tracing/metrics (borrowed, optional, pre-prime). Purely
  /// observational.
  void set_trace_sink(obs::TraceSink* sink) noexcept { trace_ = sink; }
  void set_metrics_registry(obs::MetricsRegistry* registry);

  /// Generates arrival streams, launches the initial replica sets and
  /// schedules every serving event. Call after Cluster::load and before
  /// Cluster::run.
  void prime();

  // ---- Post-run inspection ----
  [[nodiscard]] const std::vector<Request>& requests() const noexcept {
    return requests_;
  }
  [[nodiscard]] std::uint64_t serve_digest() const noexcept {
    return digest_.value();
  }

  /// Distils per-service and aggregate serving stats into the report
  /// (everything except the cluster-side ExperimentReport).
  void fill_report(ServingReport& report) const;

 private:
  struct Replica {
    PodId pod{};
    bool busy = false;
    bool retiring = false;  ///< finish_pod() already succeeded.
  };

  struct ServiceState {
    ServiceConfig cfg;
    ServiceQueue queue;
    AutoscalerModel autoscaler;
    /// Effective deadline: max(cfg.slo, §V-B floor) — same rule query pods
    /// get from ServiceSpec::qos_target.
    SimTime effective_slo = 0;
    /// Observed (contended) batch service time, EWMA-smoothed; seeded
    /// with the uncontended latency. Feeds admission prediction.
    double ewma_batch_us = 0;
    /// Observed formed-batch size, EWMA-smoothed; seeded with max_batch.
    /// Together with ewma_batch_us this is the *effective* per-replica
    /// throughput the autoscaler provisions against.
    double ewma_fill = 0;
    std::vector<Replica> replicas{};
    std::size_t arrivals_since_scale = 0;

    // Tallies (requests_ holds per-request ground truth; these avoid a
    // rescan for counters that are not derivable from it).
    std::size_t launched = 0;
    std::size_t retired = 0;
    std::size_t scale_ups = 0;
    std::size_t scale_downs = 0;
    int peak_replicas = 0;
    std::size_t batches = 0;
    std::size_t batched_requests = 0;
  };

  void on_arrival(std::uint32_t request_index);
  /// Dispatches every ripe batch the service's idle replicas can absorb.
  void try_dispatch(std::size_t service);
  void on_batch_done(std::size_t service, std::size_t replica_index,
                     std::vector<std::uint32_t> batch);
  void autoscale_round(SimTime now);
  /// Per-tick pump: re-polls queues (replicas may have relaunched after a
  /// crash with no other wake-up event) and, past the window end, tears
  /// the deployment down once queues drain. Returns false to stop.
  bool pump(SimTime now);

  PodId launch_replica(std::size_t service);
  /// Container request of one replica of this service (what a scale-up
  /// would charge to the tenant's quota).
  [[nodiscard]] double replica_request_mb(std::size_t service) const;
  /// Retires up to `count` idle running replicas, newest first. Returns
  /// how many were actually retired.
  int retire_replicas(std::size_t service, int count, bool scale_down_event);
  [[nodiscard]] int usable_replicas(const ServiceState& s) const;
  [[nodiscard]] int alive_replicas(const ServiceState& s) const;
  /// Live co-location slowdown of the replica's GPU (1.0 when not running).
  [[nodiscard]] double contention_factor(PodId pod) const;
  void record_served(Request& r, SimTime now);
  void update_gauges();

  cluster::Cluster& cluster_;
  sim::Simulation& sim_;
  ServingConfig config_;
  Rng rng_;
  std::vector<ServiceState> services_;
  std::vector<Request> requests_;
  verify::RunDigest digest_;
  SimTime window_ = 0;
  SimTime replica_lifetime_ = 0;
  SimTime teardown_deadline_ = 0;
  bool primed_ = false;

  // Observability (optional; never feeds back into decisions).
  obs::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* offered_counter_ = nullptr;
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* expired_counter_ = nullptr;
  obs::Counter* served_counter_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::Gauge* replicas_gauge_ = nullptr;
  obs::Gauge* queue_gauge_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;
};

}  // namespace knots::serve
