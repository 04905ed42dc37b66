#include "runner/workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "cluster/cluster.hpp"
#include "core/check.hpp"
#include "dlsim/dl_policies.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "runner/probes.hpp"
#include "sched/registry.hpp"
#include "serve/engine.hpp"
#include "verify/invariant_checker.hpp"
#include "verify/run_digest.hpp"
#include "workload/app_mix.hpp"

namespace perfbench {

using namespace knots;

// ---- Workload definitions ----

namespace {

/// Batch pods of both pod-cluster workloads run kBatchCompression times
/// shorter than the generator's default and arrive that many times faster,
/// which keeps GPU occupancy at the testbed's density. At the default
/// lengths a run is the drain of a few long pods on an idle datacenter,
/// so its length, and with it run_s, follows the longest pod of the seed.
constexpr double kBatchCompression = 10.0;

void compress_batch(workload::LoadGenConfig& wl) {
  wl.min_time_scale /= kBatchCompression;
  wl.max_time_scale /= kBatchCompression;
  wl.batch_rate_scale *= kBatchCompression;
}

}  // namespace

std::optional<Workload> workload_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kWorkloadNames.size(); ++i) {
    if (kWorkloadNames[i] == name) return static_cast<Workload>(i);
  }
  return std::nullopt;
}

std::string_view workload_name(Workload w) noexcept {
  return kWorkloadNames[static_cast<std::size_t>(w)];
}

ExperimentConfig pods_config(std::uint64_t seed, const PodsShape& shape) {
  ExperimentConfig cfg = ExperimentConfig::Builder{}
                             .mix(1)
                             .scheduler(sched::SchedulerKind::kPeakPrediction)
                             .nodes(shape.nodes)
                             .lanes(1)
                             .duration(shape.window)
                             .seed(seed)
                             .load_scale(shape.nodes / 10.0)
                             .build();
  compress_batch(cfg.workload);
  // Rings hold the widest scheduler lookback (PP: 5 s / 10 ms = 500
  // samples) with 2x headroom, as bench_scale's datacenter points do.
  cfg.cluster.telemetry_retention = 1024;
  return cfg;
}

DlSpec dl_fabric_spec(std::uint64_t seed) {
  DlSpec spec;
  spec.policy = "cbp-pp";
  spec.seed = seed;
  // A quarter of Fig 12's 32-node cluster with a quarter of its 520 jobs
  // over the same 12 h, so the load per GPU is Fig 12's. A seed's run time
  // follows its backlog (the cbp-pp round scans every pending job): at full
  // size one simulation took 3.3-10.8 s over 40 seeds, so the four that fit
  // in a run left run_s spreading 19-21 % between runs. A quarter-size
  // simulation takes about 0.8 s, and a run averages 32 of them.
  spec.cluster.nodes = 8;
  net::AutoFabricOptions options;
  options.intra_node_mb_per_s = spec.cluster.gpu.nvlink_mbps;
  spec.cluster.fabric =
      net::FabricPlan::auto_derive(spec.cluster.nodes, options);
  spec.cluster.allreduce_mb_per_step = 256.0;
  spec.workload.dlt_jobs = 130;
  // A hundred times Fig 12's rate of inference queries (1400 per 520
  // jobs). Under cbp-pp a query never changes a training decision (run
  // digest, JCT and utilisation are the same at the plain rate's 350), and
  // at the plain rate a seed sees a handful of deadline misses, too few for
  // a steady slo_miss_pct. Generating them also gives set-up real work.
  spec.workload.dli_queries = 35000;
  return spec;
}

serve::ServingConfig fleet_serve_config(std::uint64_t seed,
                                        const FleetShape& shape) {
  // examples/scenarios/mixed-fleet.cfg scaled by shape.scale: on-demand
  // P100 and A100, spot V100 with notice, two capped tenants, an auto
  // fabric (image pulls are flows), and two spot reclaims mid-window.
  const int p100 = 4 * shape.scale;
  const int a100 = 2 * shape.scale;
  const int v100 = 3 * shape.scale;
  const auto at = [&](double frac) {
    return static_cast<SimTime>(frac * static_cast<double>(shape.window));
  };
  fault::FaultPlan faults;
  faults.spot_reclaim(NodeId{p100 + a100}, at(0.4), at(0.3));
  faults.spot_reclaim(NodeId{p100 + a100 + v100 - 1}, at(0.65));

  serve::ServingConfig cfg = serve::default_serving(
      shape.qps, serve::ArrivalShape::kFlashCrowd, sched::SchedulerKind::kCbp);
  cfg.experiment =
      ExperimentConfig::Builder{}
          .scheduler(sched::SchedulerKind::kCbp)
          .mix(1)
          .seed(seed)
          .lanes(1)
          .duration(shape.window)
          .load_scale((p100 + a100 + v100) / 10.0)
          .node_class({"p100-16g", p100, 0, false, 0})
          .node_class({"a100-40g", a100, 0, false, 0})
          .node_class({"v100-32g", v100, 0, true, 10 * kSec})
          .tenant_quota({1, 60000.0 * shape.scale, 0.0})
          .tenant_quota({2, 40000.0 * shape.scale, 0.0})
          .workload_tenants({1, 2})
          .auto_fabric()
          .faults(faults)
          .build();
  compress_batch(cfg.experiment.workload);
  // Covers CBP's lookback as in pods_config; digests are unchanged.
  cfg.experiment.cluster.telemetry_retention = 1024;
  cfg.window = shape.window;
  cfg.arrivals.spike_multiplier = 3.0;
  // imc and key replicas are charged to tenant 1, face to tenant 2.
  for (auto& svc : cfg.services) {
    svc.tenant = svc.service == workload::Service::kFace ? 2 : 1;
  }
  return cfg;
}

// ---- Metric catalogue ----

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s", "lower"},
      {"run_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"mean_jct_s", "s", "lower"},
      {"energy_kj", "kJ", "lower"},
      {"gpu_util_p50_pct", "%", "higher"},
      {"slo_miss_pct", "%", "lower"},
  };
  return metrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"sched.round_s", "s", "lower"},
      {"sched.self_s", "s", "lower"},
      {"sched.rounds", "count", "lower"},
      {"sched.pending_per_round", "count", "lower"},
      {"sched.placements", "count", "lower"},
      {"telemetry.scrape_s", "s", "lower"},
      {"telemetry.query_s", "s", "lower"},
      {"verify.audit_s", "s", "lower"},
      {"verify.audits", "count", "lower"},
      {"verify.digest_s", "s", "lower"},
      {"cluster.advance_s", "s", "lower"},
      {"cluster.ticks", "count", "lower"},
      {"cluster.node_ticks", "count", "lower"},
      {"cluster.crashes", "count", "lower"},
      {"cluster.evictions", "count", "lower"},
      {"residual_s", "s", "lower"},
      {"sim.events", "count", "lower"},
      {"sim.dispatch_s", "s", "lower"},
      {"sim.queue_s", "s", "lower"},
      {"sim.us_per_event", "us", "lower"},
      {"serve.prime_s", "s", "lower"},
      {"serve.offered", "count", "higher"},
      {"serve.admitted", "count", "higher"},
      {"serve.shed", "count", "lower"},
      {"serve.expired", "count", "lower"},
      {"serve.served", "count", "higher"},
      {"serve.batches", "count", "lower"},
      {"serve.batch_fill", "ratio", "higher"},
      {"serve.scale_ups", "count", "lower"},
      {"serve.admit_ratio", "ratio", "higher"},
      {"dl.schedule_s", "s", "lower"},
      {"dl.rounds", "count", "lower"},
      {"dl.query_s", "s", "lower"},
      {"dl.queries", "count", "higher"},
      {"dl.engine_s", "s", "lower"},
      {"dl.migrations", "count", "lower"},
      {"dl.preemptions", "count", "lower"},
      {"dl.crash_restarts", "count", "lower"},
      {"net.flows", "count", "lower"},
      {"net.flows_contended", "count", "lower"},
      {"net.contended_ratio", "ratio", "lower"},
      {"net.mb", "MB", "lower"},
      {"workload.generate_s", "s", "lower"},
      {"cluster.construct_s", "s", "lower"},
      {"knots.report_s", "s", "lower"},
      {"trace.run_s", "s", "lower"},
      {"trace.overhead_pct", "%", "lower"},
  };
  return metrics;
}

// ---- Composed runs ----

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Layer values of a traced run, keyed by catalogue name. Starts at zero
/// for every layer so a workload reports the layers it never touches as 0.
/// trace.overhead_pct compares two processes, so perfbench/run.py adds it.
class LayerValues {
 public:
  LayerValues() {
    for (const MetricSpec& m : per_layer_metrics()) {
      if (m.name != "trace.overhead_pct") {
        values_.emplace_back(std::string(m.name), 0.0);
      }
    }
  }
  void set(std::string_view name, double value) {
    for (auto& [key, v] : values_) {
      if (key == name) {
        v = value;
        return;
      }
    }
    KNOTS_CHECK_MSG(false, "layer metric missing from the catalogue");
  }
  [[nodiscard]] std::vector<std::pair<std::string, double>> take() {
    return std::move(values_);
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// The simulator's profiling histograms the traced run reads. Created with
/// a one-sample window before the cluster resolves them: only count and sum
/// are read, and the default 1024-sample sorted window would add an
/// O(window) insert to every timed call.
constexpr std::array<const char*, 7> kProfileHistograms = {
    "sched.on_schedule_ns", "cluster.advance_ns",  "telemetry.scrape_ns",
    "cluster.barrier_merge_ns", "telemetry.agg_sort_ns", "sim.dispatch_ns",
    "serve.latency_ms"};

double histogram_s(const obs::MetricsRegistry& registry, const char* name) {
  const obs::Histogram* h = registry.find_histogram(name);
  return h != nullptr ? h->sum() * 1e-9 : 0.0;
}

/// The net layer's counters, from the fabric a run was built with.
void set_net_layers(LayerValues& layers, const net::Fabric* fabric) {
  if (fabric == nullptr) return;
  const auto& s = fabric->stats();
  layers.set("net.flows", static_cast<double>(s.flows_started));
  layers.set("net.flows_contended", static_cast<double>(s.flows_contended));
  layers.set("net.contended_ratio",
             s.flows_finished == 0
                 ? 0.0
                 : static_cast<double>(s.flows_contended) /
                       static_cast<double>(s.flows_finished));
  layers.set("net.mb", s.mb_transferred);
}

/// Probes of a traced pod-cluster run.
struct PodProbes {
  explicit PodProbes(cluster::Scheduler& scheduler)
      : sched(scheduler, spans, phase) {
    for (const char* name : kProfileHistograms) registry.histogram(name, 1);
  }
  SpanRecorder spans;
  TickPhase phase;
  obs::MetricsRegistry registry;
  TimedScheduler sched;
  std::unique_ptr<TimedObserver> audit;
  std::unique_ptr<TimedObserver> digest;
};

/// Scheduler, cluster and verification observers, wired the way KubeKnots
/// and run_serving wire them, with the probes in between when traced.
class PodSubstrate {
 public:
  PodSubstrate(const ExperimentConfig& exp, bool traced)
      : scheduler_(sched::make_scheduler(exp.scheduler, exp.sched_params)),
        verifier_(invariant_options(exp.scheduler)) {
    if (traced) probes_ = std::make_unique<PodProbes>(*scheduler_);
    cluster::ClusterConfig cluster_cfg = exp.cluster;
    cluster_cfg.seed = exp.seed;
    cluster_ = std::make_unique<cluster::Cluster>(
        cluster_cfg, traced ? static_cast<cluster::Scheduler&>(probes_->sched)
                            : *scheduler_);
    cluster_->set_fault_plan(exp.faults);
    if (traced) {
      probes_->audit = std::make_unique<TimedObserver>(
          verifier_, Layer::kAudit, probes_->spans, probes_->phase);
      probes_->digest = std::make_unique<TimedObserver>(
          digest_, Layer::kDigest, probes_->spans, probes_->phase);
      cluster_->add_observer(probes_->audit.get());
      cluster_->add_observer(probes_->digest.get());
      cluster_->set_metrics_registry(&probes_->registry);
    } else {
      cluster_->add_observer(&verifier_);
      cluster_->add_observer(&digest_);
    }
  }

  [[nodiscard]] cluster::Cluster& cluster() { return *cluster_; }
  [[nodiscard]] const cluster::Scheduler& scheduler() const {
    return *scheduler_;
  }
  [[nodiscard]] verify::RunDigest& digest() { return digest_; }
  [[nodiscard]] PodProbes* probes() { return probes_.get(); }
  [[nodiscard]] const SpanRecorder* spans() const {
    return probes_ != nullptr ? &probes_->spans : nullptr;
  }

  /// Runs the cluster, timing the call.
  double run() {
    const auto start = Clock::now();
    cluster_->run();
    return seconds_since(start);
  }

  /// Copies the verification results onto a report, as KubeKnots does.
  void finish_report(ExperimentReport& report) const {
    report.run_digest = digest_.value();
    report.invariant_checks = verifier_.checks_run();
    report.invariant_violations = verifier_.violation_count();
    for (const auto& v : verifier_.violations()) {
      report.invariant_messages.push_back(v.category + ": " + v.message);
    }
  }

  struct Ending {
    std::uint64_t unfinished_pods = 0;
    bool hit_deadline = false;  ///< The drain deadline ended the run.
  };

  /// Correctness gate shared by pod-cluster runs: invariants hold, the
  /// report agrees with the pod state table, and every pod is terminal
  /// unless the drain deadline ended the run.
  Ending check(const ExperimentReport& report,
               std::vector<std::string>& errors) const {
    if (report.invariant_violations != 0) {
      errors.push_back("invariant violations: " +
                       std::to_string(report.invariant_violations) + " (" +
                       (report.invariant_messages.empty()
                            ? std::string("no message")
                            : report.invariant_messages.front()) +
                       ")");
    }
    const auto& states = cluster_->pod_state_table();
    std::uint64_t completed = 0;
    SimTime last_arrival = 0;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i] == static_cast<std::uint8_t>(cluster::PodState::kCompleted)) {
        ++completed;
      }
      last_arrival = std::max(
          last_arrival, cluster_->pod(PodId{static_cast<std::int32_t>(i)})
                            .spec()
                            .arrival);
    }
    if (states.size() != report.pods_total ||
        completed != report.pods_completed) {
      errors.push_back("pod accounting: state table holds " +
                       std::to_string(completed) + "/" +
                       std::to_string(states.size()) +
                       " completed, report says " +
                       std::to_string(report.pods_completed) + "/" +
                       std::to_string(report.pods_total));
    }
    const std::uint64_t unfinished = states.size() - completed;
    const bool hit_deadline =
        cluster_->now() >= last_arrival + cluster_->config().drain_grace;
    if (unfinished != 0 && !hit_deadline) {
      errors.push_back(std::to_string(unfinished) +
                       " pods not terminal before the drain deadline");
    }
    return Ending{unfinished, hit_deadline};
  }

  /// Layer attribution of a traced run. Self times of the named layers plus
  /// residual_s sum to run_wall_s + report_s (checked here).
  void attribute(LayerValues& layers, double run_wall_s, double report_s,
                 std::vector<std::string>& errors) const {
    const PodProbes& p = *probes_;
    const obs::MetricsRegistry& r = p.registry;
    const double dispatch = histogram_s(r, "sim.dispatch_ns");
    const double advance_incl = histogram_s(r, "cluster.advance_ns");
    const double scrape = histogram_s(r, "telemetry.scrape_ns");
    const double query = histogram_s(r, "telemetry.agg_sort_ns");
    const double round = p.spans.inclusive_s(Layer::kSched);
    // Observer time nested in scheduler spans is inside `round`; the part
    // nested in pod advance is inside the advance histogram.
    const double in_sched = round - p.spans.self_s(Layer::kSched);
    const double in_advance = p.audit->in_advance_s() + p.digest->in_advance_s();
    const double audit = p.spans.inclusive_s(Layer::kAudit);
    const double digest = p.spans.inclusive_s(Layer::kDigest);
    const double observers_outer = audit + digest - in_sched - in_advance;
    const double residual =
        dispatch - advance_incl - scrape - round - observers_outer;
    const double queue = run_wall_s - dispatch;

    const double advance_self = advance_incl - in_advance;
    const double sched_self = round - in_sched - query;
    const double attributed = advance_self + scrape + sched_self + query +
                              audit + digest + residual + queue + report_s;
    if (std::abs(attributed - (run_wall_s + report_s)) > 1e-6 ||
        residual < -1e-3 || sched_self < -1e-3) {
      errors.push_back("layer attribution does not add up to run_s");
    }

    const auto& c = *cluster_;
    const double events = static_cast<double>(c.events_processed());
    layers.set("sched.round_s", round);
    layers.set("sched.self_s", sched_self);
    layers.set("sched.rounds", static_cast<double>(p.sched.rounds()));
    layers.set("sched.pending_per_round",
               p.sched.rounds() == 0
                   ? 0.0
                   : static_cast<double>(p.sched.pending_seen()) /
                         static_cast<double>(p.sched.rounds()));
    layers.set("sched.placements", static_cast<double>(p.digest->places()));
    layers.set("telemetry.scrape_s", scrape);
    layers.set("telemetry.query_s", query);
    layers.set("verify.audit_s", audit);
    layers.set("verify.audits", static_cast<double>(verifier_.checks_run()));
    layers.set("verify.digest_s", digest);
    layers.set("cluster.advance_s", advance_self);
    layers.set("cluster.ticks", static_cast<double>(c.tick_count()));
    layers.set("cluster.node_ticks", static_cast<double>(c.tick_count()) *
                                         static_cast<double>(c.node_count()));
    layers.set("cluster.crashes",
               static_cast<double>(c.metrics().crash_count()));
    layers.set("cluster.evictions",
               static_cast<double>(c.fault_stats().pods_evicted));
    layers.set("residual_s", residual);
    layers.set("sim.events", events);
    layers.set("sim.dispatch_s", dispatch);
    layers.set("sim.queue_s", queue);
    layers.set("sim.us_per_event", events > 0 ? run_wall_s / events * 1e6 : 0);
    set_net_layers(layers, c.fabric());
  }

 private:
  static verify::InvariantOptions invariant_options(sched::SchedulerKind kind) {
    // Same posture as KubeKnots and run_serving: only the blind Res-Ag
    // baseline may overcommit declared requests past device capacity.
    verify::InvariantOptions opts;
    opts.provision_ceiling_ratio =
        kind == sched::SchedulerKind::kResourceAgnostic ? 0.0 : 1.0;
    return opts;
  }

  std::unique_ptr<cluster::Scheduler> scheduler_;
  std::unique_ptr<PodProbes> probes_;
  verify::InvariantChecker verifier_;
  verify::RunDigest digest_;
  std::unique_ptr<cluster::Cluster> cluster_;
};

/// Fills the timings shared by every traced run.
void set_phase_layers(LayerValues& layers, const RunOutcome& out) {
  layers.set("workload.generate_s", out.generate_s);
  layers.set("cluster.construct_s", out.construct_s);
  layers.set("serve.prime_s", out.prime_s);
  layers.set("knots.report_s", out.report_s);
  layers.set("trace.run_s", out.run_s());
}

bool finite_outcome(const RunOutcome& out) {
  for (const double v : {out.mean_jct_s, out.energy_kj, out.gpu_util_p50_pct,
                         out.slo_miss_pct, out.run_wall_s, out.report_s,
                         out.generate_s, out.construct_s, out.prime_s}) {
    if (!std::isfinite(v)) return false;
  }
  for (const auto& [name, v] : out.layers) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// pods-1k: KubeKnots::submit_mix_workload + KubeKnots::run, split.
class PodRun final : public ComposedRun {
 public:
  PodRun(const ExperimentConfig& config, bool traced)
      : config_(config), traced_(traced) {
    auto start = Clock::now();
    substrate_ = std::make_unique<PodSubstrate>(config_, traced);
    const double substrate_s = seconds_since(start);

    start = Clock::now();
    std::vector<workload::PodSpec> pods = generate();
    out_.generate_s = seconds_since(start);

    start = Clock::now();
    substrate_->cluster().load(std::move(pods));
    out_.construct_s = substrate_s + seconds_since(start);
  }

  RunOutcome run() override {
    cluster::Cluster& cluster = substrate_->cluster();
    out_.run_wall_s = substrate_->run();

    const auto start = Clock::now();
    // Final tenant ledger rows, exactly as KubeKnots::run commits them.
    const auto& ledger = cluster.tenant_ledger();
    if (!ledger.empty()) {
      verify::RunDigest& digest = substrate_->digest();
      for (const auto& row : ledger.rows()) {
        digest.begin_record(verify::RunDigest::Tag::kTenantAccount,
                            cluster.now());
        digest.mix_u64(static_cast<std::uint64_t>(row.tenant));
        digest.mix_double(row.provisioned_mb);
        digest.mix_double(row.peak_provisioned_mb);
        digest.mix_double(row.gpu_seconds);
        digest.mix_u64(static_cast<std::uint64_t>(row.placements));
        digest.mix_u64(static_cast<std::uint64_t>(row.rejections));
      }
    }
    ExperimentReport report = build_report(
        cluster, substrate_->scheduler().name(), config_.mix_id);
    substrate_->finish_report(report);
    out_.report_s = seconds_since(start);

    out_.run_digest = report.run_digest;
    out_.mean_jct_s = report.mean_jct_s;
    out_.energy_kj = report.energy_joules / 1000.0;
    out_.gpu_util_p50_pct = report.cluster_wide.p50;
    out_.node_ticks = report.ticks * static_cast<std::uint64_t>(
                                         cluster.node_count());
    out_.attempted = report.pods_total;
    out_.failed = substrate_->check(report, out_.errors).unfinished_pods;
    // Latency-critical query pods: late ones plus any left unfinished.
    std::uint64_t lc_unfinished = 0;
    std::uint64_t lc_total = 0;
    for (std::size_t i = 0; i < cluster.pod_count(); ++i) {
      const auto& pod = cluster.pod(PodId{static_cast<std::int32_t>(i)});
      if (!pod.latency_critical()) continue;
      ++lc_total;
      if (pod.state() != cluster::PodState::kCompleted) ++lc_unfinished;
    }
    out_.slo_miss_pct =
        lc_total == 0 ? 0.0
                      : 100.0 *
                            static_cast<double>(report.qos_violations +
                                                lc_unfinished) /
                            static_cast<double>(lc_total);

    if (traced_) {
      LayerValues layers;
      substrate_->attribute(layers, out_.run_wall_s, out_.report_s,
                            out_.errors);
      set_phase_layers(layers, out_);
      out_.layers = layers.take();
    }
    if (!finite_outcome(out_)) out_.errors.push_back("non-finite metric");
    return out_;
  }

  [[nodiscard]] const SpanRecorder* spans() const noexcept override {
    return substrate_->spans();
  }

 private:
  /// KubeKnots::submit_mix_workload on a homogeneous cluster, then the
  /// arrival sort and dense id assignment KubeKnots::run applies before
  /// Cluster::load.
  std::vector<workload::PodSpec> generate() const {
    KNOTS_CHECK_MSG(config_.cluster.node_classes.empty(),
                    "PodRun composes homogeneous clusters only");
    workload::LoadGenConfig wl = config_.workload;
    wl.device_memory_mb = config_.cluster.node_spec.gpu.memory_mb;
    auto pods = workload::generate_workload(workload::app_mix(config_.mix_id),
                                            wl, Rng(config_.seed));
    std::stable_sort(pods.begin(), pods.end(), [](const auto& a, const auto& b) {
      return a.arrival < b.arrival;
    });
    for (std::size_t i = 0; i < pods.size(); ++i) {
      pods[i].id = PodId{static_cast<std::int32_t>(i)};
    }
    return pods;
  }

  ExperimentConfig config_;
  bool traced_;
  std::unique_ptr<PodSubstrate> substrate_;
};

/// fleet-serve: serve::run_serving, split.
class ServeRun final : public ComposedRun {
 public:
  ServeRun(const serve::ServingConfig& config, bool traced)
      : config_(config), traced_(traced) {
    const ExperimentConfig& exp = config_.experiment;
    auto start = Clock::now();
    substrate_ = std::make_unique<PodSubstrate>(exp, traced);
    const double substrate_s = seconds_since(start);

    // Background batch pods; the mix's own query pods are dropped because
    // the request stream is the latency-critical load.
    start = Clock::now();
    std::vector<workload::PodSpec> pods;
    if (config_.background_batch) {
      workload::LoadGenConfig wl = exp.workload;
      wl.duration = config_.window;
      wl.device_memory_mb = exp.cluster.node_spec.gpu.memory_mb;
      auto mixed = workload::generate_workload(workload::app_mix(exp.mix_id),
                                               wl, Rng(exp.seed));
      for (auto& p : mixed) {
        if (p.klass == workload::PodClass::kBatch) pods.push_back(std::move(p));
      }
      for (std::size_t i = 0; i < pods.size(); ++i) {
        pods[i].id = PodId{static_cast<std::int32_t>(i)};
      }
    }
    batch_pods_ = pods.size();
    out_.generate_s = seconds_since(start);

    start = Clock::now();
    cluster::Cluster& cluster = substrate_->cluster();
    cluster.load(std::move(pods));
    engine_ = std::make_unique<serve::ServingEngine>(
        cluster, config_, Rng(exp.seed).fork(0x53525645));
    if (traced) engine_->set_metrics_registry(&substrate_->probes()->registry);
    out_.construct_s = substrate_s + seconds_since(start);

    start = Clock::now();
    engine_->prime();
    out_.prime_s = seconds_since(start);
  }

  RunOutcome run() override {
    cluster::Cluster& cluster = substrate_->cluster();
    out_.run_wall_s = substrate_->run();

    const auto start = Clock::now();
    serve::ServingReport report;
    report.experiment = build_report(cluster, substrate_->scheduler().name(),
                                     config_.experiment.mix_id);
    substrate_->finish_report(report.experiment);
    engine_->fill_report(report);
    out_.report_s = seconds_since(start);

    out_.run_digest = report.experiment.run_digest;
    out_.serve_digest = report.serve_digest;
    out_.mean_jct_s = report.experiment.mean_jct_s;
    out_.energy_kj = report.experiment.energy_joules / 1000.0;
    out_.gpu_util_p50_pct = report.experiment.cluster_wide.p50;
    out_.node_ticks = report.experiment.ticks *
                      static_cast<std::uint64_t>(cluster.node_count());
    out_.requests = report.offered;

    // Every pod (batch and replica) terminal; batch pods count as
    // operations, replicas are the deployment's own machinery.
    const auto ending = substrate_->check(report.experiment, out_.errors);
    std::uint64_t batch_unfinished = 0;
    for (std::size_t i = 0; i < batch_pods_; ++i) {
      if (cluster.pod(PodId{static_cast<std::int32_t>(i)}).state() !=
          cluster::PodState::kCompleted) {
        ++batch_unfinished;
      }
    }
    // Requests: each one served, shed, expired or (past the drain
    // deadline) still pending — counted from the request table, then
    // checked against the report's tallies.
    std::uint64_t served = 0, shed = 0, expired = 0, pending = 0, late = 0;
    for (const serve::Request& r : engine_->requests()) {
      switch (r.outcome) {
        case serve::RequestOutcome::kCompleted:
        case serve::RequestOutcome::kDegraded:
          ++served;
          if (r.completion > r.deadline) ++late;
          break;
        case serve::RequestOutcome::kShed: ++shed; break;
        case serve::RequestOutcome::kExpired: ++expired; break;
        case serve::RequestOutcome::kPending: ++pending; break;
      }
    }
    if (report.offered != served + shed + expired + pending ||
        report.completed + report.degraded != served ||
        report.shed != shed || report.expired != expired) {
      out_.errors.push_back("request accounting: offered != served + shed + "
                            "expired");
    }
    if (pending != 0 && !ending.hit_deadline) {
      out_.errors.push_back(std::to_string(pending) +
                            " requests not terminal before the drain deadline");
    }
    out_.attempted = batch_pods_ + report.offered;
    out_.failed = batch_unfinished + shed + expired + pending;
    out_.slo_miss_pct =
        report.offered == 0
            ? 0.0
            : 100.0 * static_cast<double>(shed + expired + pending + late) /
                  static_cast<double>(report.offered);

    if (traced_) {
      LayerValues layers;
      substrate_->attribute(layers, out_.run_wall_s, out_.report_s,
                            out_.errors);
      set_phase_layers(layers, out_);
      layers.set("serve.offered", static_cast<double>(report.offered));
      layers.set("serve.admitted", static_cast<double>(report.admitted));
      layers.set("serve.shed", static_cast<double>(report.shed));
      layers.set("serve.expired", static_cast<double>(report.expired));
      layers.set("serve.served",
                 static_cast<double>(report.completed + report.degraded));
      layers.set("serve.batches", static_cast<double>(report.batches));
      layers.set("serve.batch_fill", report.mean_batch_fill);
      layers.set("serve.scale_ups", static_cast<double>(report.scale_ups));
      layers.set("serve.admit_ratio",
                 report.offered == 0
                     ? 0.0
                     : static_cast<double>(report.admitted) /
                           static_cast<double>(report.offered));
      out_.layers = layers.take();
    }
    if (!finite_outcome(out_)) out_.errors.push_back("non-finite metric");
    return out_;
  }

  [[nodiscard]] const SpanRecorder* spans() const noexcept override {
    return substrate_->spans();
  }

 private:
  serve::ServingConfig config_;
  bool traced_;
  std::unique_ptr<PodSubstrate> substrate_;
  std::unique_ptr<serve::ServingEngine> engine_;
  std::size_t batch_pods_ = 0;
};

/// dl-fabric: dlsim::run_dl_simulation, split.
class DlRun final : public ComposedRun {
 public:
  DlRun(const DlSpec& spec, bool traced) : spec_(spec), traced_(traced) {
    auto start = Clock::now();
    Rng rng(spec_.seed);
    workload_ = dlsim::generate_dl_workload(spec_.workload, rng.fork(1));
    out_.generate_s = seconds_since(start);

    start = Clock::now();
    dlsim::register_dl_schedulers();
    policy_ = sched::make_scheduler(spec_.policy);
    auto* dl = dynamic_cast<dlsim::DlScheduler*>(policy_.get());
    KNOTS_CHECK_MSG(dl != nullptr, "named scheduler is not a DL policy");
    sampler_ = std::make_unique<OccupancySampler>(*dl);
    dlsim::DlScheduler* outer = sampler_.get();
    if (traced) {
      timed_ = std::make_unique<TimedDlScheduler>(*sampler_, spans_);
      outer = timed_.get();
    }
    engine_ = std::make_unique<dlsim::DlEngine>(spec_.cluster, *outer,
                                                spec_.seed);
    engine_->load(workload_);
    engine_->set_fault_plan(fault::FaultPlan{});
    out_.construct_s = seconds_since(start);
  }

  RunOutcome run() override {
    auto start = Clock::now();
    engine_->run();
    out_.run_wall_s = seconds_since(start);

    start = Clock::now();
    const dlsim::DlResult result = engine_->result();
    out_.report_s = seconds_since(start);

    out_.run_digest = result.run_digest;
    out_.mean_jct_s = result.avg_jct_h * 3600.0;
    out_.energy_kj = result.energy_joules / 1000.0;
    out_.gpu_util_p50_pct = sampler_->median_busy_pct();
    out_.slo_miss_pct =
        result.queries.empty()
            ? 0.0
            : 100.0 * static_cast<double>(result.dli_violations) /
                  static_cast<double>(result.queries.size());
    for (const auto& job : engine_->jobs()) {
      out_.job_steps += static_cast<double>(job.progress) /
                        static_cast<double>(spec_.cluster.step);
    }

    if (result.invariant_violations != 0) {
      out_.errors.push_back("DL invariant violations: " +
                            std::to_string(result.invariant_violations));
    }
    std::size_t done = 0;
    for (const auto& job : engine_->jobs()) done += job.done() ? 1 : 0;
    if (result.dlt_total != workload_.jobs.size() ||
        result.dlt_completed != done ||
        result.queries.size() != workload_.queries.size()) {
      out_.errors.push_back("DL accounting: jobs or queries unaccounted for");
    }
    out_.attempted = result.dlt_total + result.queries.size();
    out_.failed = result.dlt_total - result.dlt_completed;

    if (traced_) {
      LayerValues layers;
      set_phase_layers(layers, out_);
      const double schedule = spans_.inclusive_s(Layer::kDlSchedule);
      const double query = spans_.inclusive_s(Layer::kDlQuery);
      layers.set("dl.schedule_s", schedule);
      layers.set("dl.rounds",
                 static_cast<double>(spans_.calls(Layer::kDlSchedule)));
      layers.set("dl.query_s", query);
      layers.set("dl.queries",
                 static_cast<double>(spans_.calls(Layer::kDlQuery)));
      layers.set("dl.engine_s", out_.run_wall_s - schedule - query);
      layers.set("dl.migrations", static_cast<double>(result.migrations));
      layers.set("dl.preemptions", static_cast<double>(result.preemptions));
      layers.set("dl.crash_restarts",
                 static_cast<double>(result.crash_restarts));
      set_net_layers(layers, engine_->fabric());
      out_.layers = layers.take();
    }
    if (!finite_outcome(out_)) out_.errors.push_back("non-finite metric");
    return out_;
  }

  [[nodiscard]] const SpanRecorder* spans() const noexcept override {
    return traced_ ? &spans_ : nullptr;
  }

 private:
  DlSpec spec_;
  bool traced_;
  dlsim::DlWorkload workload_;
  std::unique_ptr<cluster::Scheduler> policy_;
  std::unique_ptr<OccupancySampler> sampler_;
  SpanRecorder spans_;
  std::unique_ptr<TimedDlScheduler> timed_;
  std::unique_ptr<dlsim::DlEngine> engine_;
};

}  // namespace

std::unique_ptr<ComposedRun> make_pod_run(const ExperimentConfig& config,
                                          bool traced) {
  return std::make_unique<PodRun>(config, traced);
}

std::unique_ptr<ComposedRun> make_serve_run(
    const serve::ServingConfig& config, bool traced) {
  return std::make_unique<ServeRun>(config, traced);
}

std::unique_ptr<ComposedRun> make_dl_run(const DlSpec& spec, bool traced) {
  return std::make_unique<DlRun>(spec, traced);
}

std::unique_ptr<ComposedRun> make_run(Workload workload, std::uint64_t seed,
                                      bool traced) {
  switch (workload) {
    case Workload::kPods1k:
      return make_pod_run(pods_config(seed), traced);
    case Workload::kDlFabric:
      return make_dl_run(dl_fabric_spec(seed), traced);
    case Workload::kFleetServe:
      return make_serve_run(fleet_serve_config(seed), traced);
  }
  return nullptr;
}

}  // namespace perfbench
