// knots::serve end-to-end laws: identical (config, seed) serving runs are
// bit-identical, a zero-QPS deployment is invisible to
// the cluster underneath, every request ends in one outcome that the
// report counts, and the crash-storm serving digest is pinned golden so
// the fault path cannot drift silently.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "knots/kube_knots.hpp"
#include "serve/engine.hpp"
#include "serve/serving.hpp"
#include "workload/app_mix.hpp"

namespace knots::serve {
namespace {

ServingConfig small_serving(ArrivalShape shape) {
  ServingConfig cfg = default_serving(60.0, shape);
  cfg.experiment = ExperimentConfig::Builder{}
                       .scheduler(sched::SchedulerKind::kPeakPrediction)
                       .nodes(4)
                       .build();
  cfg.window = 10 * kSec;
  return cfg;
}

fault::FaultPlan storm_plan() {
  return fault::FaultPlan{}
      .node_crash(NodeId{1}, 4 * kSec, 3 * kSec)
      .gpu_ecc_degrade(NodeId{0}, 2 * kSec, 1024.0)
      .heartbeat_loss(NodeId{2}, 3 * kSec, 2 * kSec)
      .pcie_stall(NodeId{3}, 5 * kSec, 2 * kSec, 4.0);
}

/// A ServingEngine on a bare cluster, built as the benchmark's serving run
/// builds it: the batch pods loaded and the engine primed, nothing run.
struct Deployment {
  std::unique_ptr<cluster::Scheduler> scheduler;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<ServingEngine> engine;
};

Deployment prime_deployment(const ServingConfig& cfg) {
  const ExperimentConfig& exp = cfg.experiment;
  Deployment d;
  d.scheduler = sched::make_scheduler(exp.scheduler, exp.sched_params);
  cluster::ClusterConfig cluster_cfg = exp.cluster;
  cluster_cfg.seed = exp.seed;
  d.cluster = std::make_unique<cluster::Cluster>(cluster_cfg, *d.scheduler);
  d.cluster->set_fault_plan(exp.faults);

  workload::LoadGenConfig wl = exp.workload;
  wl.duration = cfg.window;
  wl.device_memory_mb = exp.cluster.node_spec.gpu.memory_mb;
  std::vector<workload::PodSpec> pods;
  for (auto& p : workload::generate_workload(workload::app_mix(exp.mix_id),
                                             wl, Rng(exp.seed))) {
    if (p.klass == workload::PodClass::kBatch) pods.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < pods.size(); ++i) {
    pods[i].id = PodId{static_cast<std::int32_t>(i)};
  }
  d.cluster->load(std::move(pods));

  d.engine = std::make_unique<ServingEngine>(*d.cluster, cfg,
                                             Rng(exp.seed).fork(0x53525645));
  d.engine->prime();
  return d;
}

/// Runs `cfg` by driving a ServingEngine on a bare cluster, as the
/// benchmark's serving run does, and returns the engine's report and its
/// request table.
std::pair<ServingReport, std::vector<Request>> drive_engine(
    const ServingConfig& cfg) {
  const Deployment d = prime_deployment(cfg);
  d.cluster->run();
  ServingReport report;
  d.engine->fill_report(report);
  return {report, d.engine->requests()};
}

static_assert(sizeof(Request) == 32, "a request-table row is 32 bytes");

TEST(Serving, DeterminismLaw) {
  // The serving determinism law: identical config + seed produce a
  // bit-identical request log (digest) and cluster run.
  for (const ArrivalShape shape :
       {ArrivalShape::kPoisson, ArrivalShape::kDiurnal,
        ArrivalShape::kFlashCrowd}) {
    SCOPED_TRACE(to_string(shape));
    const auto a = run_serving(small_serving(shape));
    const auto b = run_serving(small_serving(shape));

    EXPECT_EQ(a.serve_digest, b.serve_digest);
    EXPECT_EQ(a.experiment.run_digest, b.experiment.run_digest);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.scale_ups, b.scale_ups);
    EXPECT_GT(a.offered, 0u);
    EXPECT_GT(a.completed, 0u);
    EXPECT_EQ(a.experiment.invariant_violations, 0u);
  }
}

TEST(Serving, SeedPerturbsTheRequestLog) {
  ServingConfig cfg = small_serving(ArrivalShape::kPoisson);
  const auto a = run_serving(cfg);
  cfg.experiment.seed = 43;
  const auto b = run_serving(cfg);
  EXPECT_NE(a.serve_digest, b.serve_digest);
}

TEST(Serving, ShapesProduceDistinctTraffic) {
  const auto poisson = run_serving(small_serving(ArrivalShape::kPoisson));
  const auto flash = run_serving(small_serving(ArrivalShape::kFlashCrowd));
  EXPECT_NE(poisson.serve_digest, flash.serve_digest);
}

TEST(Serving, ZeroQpsRunIsInert) {
  // A deployment with no traffic and no warm replicas must leave the
  // cluster's decision sequence exactly as KubeKnots would produce it for
  // the same batch-only workload: the serving layer is pay-for-what-you-use.
  ServingConfig cfg = small_serving(ArrivalShape::kPoisson);
  for (auto& svc : cfg.services) {
    svc.qps = 0.0;
    svc.min_replicas = 0;
  }
  const auto report = run_serving(cfg);
  EXPECT_EQ(report.offered, 0u);
  EXPECT_EQ(report.admitted, 0u);
  EXPECT_EQ(report.batches, 0u);
  EXPECT_EQ(report.replicas_launched, 0u);
  EXPECT_EQ(report.scale_ups, 0u);

  // Reference run: the same filtered batch workload through the facade.
  KubeKnots knots(cfg.experiment);
  workload::LoadGenConfig wl = cfg.experiment.workload;
  wl.duration = cfg.window;
  wl.device_memory_mb = cfg.experiment.cluster.node_spec.gpu.memory_mb;
  auto pods = workload::generate_workload(
      workload::app_mix(cfg.experiment.mix_id), wl,
      Rng(cfg.experiment.seed));
  for (auto& p : pods) {
    if (p.klass == workload::PodClass::kBatch) knots.submit(std::move(p));
  }
  const auto reference = knots.run();
  EXPECT_EQ(report.experiment.run_digest, reference.run_digest);
}

TEST(Serving, IdenticalCrashStormReplaysIdentically) {
  ServingConfig cfg = small_serving(ArrivalShape::kPoisson);
  cfg.experiment.faults = storm_plan();
  const auto a = run_serving(cfg);
  const auto b = run_serving(cfg);
  EXPECT_EQ(a.serve_digest, b.serve_digest);
  EXPECT_EQ(a.experiment.run_digest, b.experiment.run_digest);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.expired, b.expired);
}

// Golden serving digest under the crash storm. Pins the entire faulted
// request log — admission decisions, batch formation, replica crash
// re-queues, autoscaler reactions. To regenerate after an intentional
// behaviour change: run this test, copy the "actual" value from the
// failure output, and record the change in EXPERIMENTS.md.
TEST(Serving, GoldenCrashStormDigest) {
  ServingConfig cfg = small_serving(ArrivalShape::kPoisson);
  cfg.experiment.faults = storm_plan();
  const auto report = run_serving(cfg);
  EXPECT_EQ(report.serve_digest, 0x413a9a5d39bfd044ull)
      << "crash-storm serving digest drifted (actual 0x" << std::hex
      << report.serve_digest << ")";
  EXPECT_GT(report.offered, 0u);
  EXPECT_EQ(report.experiment.invariant_violations, 0u);
}

// Golden digests over a window of more than ten event-queue horizons
// (about 8.4 s each). ServingEngine::prime schedules every arrival up
// front, so all but the first horizon's wait on the queue's far path: this
// pins the order in which far events reach the engine, which the 10 s
// goldens above barely reach.
TEST(Serving, LongWindowGoldenDigestIsPinned) {
  ServingConfig cfg = small_serving(ArrivalShape::kFlashCrowd);
  cfg.services = default_serving(600.0, ArrivalShape::kFlashCrowd).services;
  cfg.window = 90 * kSec;
  const auto report = run_serving(cfg);
  EXPECT_EQ(report.experiment.run_digest, 0x8ca929487927a315ull)
      << "long-window run digest drifted (actual 0x" << std::hex
      << report.experiment.run_digest << ")";
  EXPECT_EQ(report.serve_digest, 0x2bef96f81b908ae7ull)
      << "long-window serve digest drifted (actual 0x" << std::hex
      << report.serve_digest << ")";
  EXPECT_EQ(report.experiment.events, 107905u);
  EXPECT_EQ(report.services.size(), 3u);
  EXPECT_EQ(report.experiment.invariant_violations, 0u);
}

TEST(Serving, AdmissionShedKeepsSloMissesLow) {
  // Requests that would blow the deadline are turned away at arrival; the
  // served population's SLO-violation fraction must stay small even under
  // the flash crowd.
  const auto report = run_serving(small_serving(ArrivalShape::kFlashCrowd));
  ASSERT_GT(report.completed + report.degraded, 0u);
  const double miss_rate =
      static_cast<double>(report.slo_violations) /
      static_cast<double>(report.completed + report.degraded);
  EXPECT_LT(miss_rate, 0.15);
}

// Every request ends in exactly one outcome, the report's tallies are
// counts over the request table, and no request is served degraded: for
// every arrival shape and under the crash storm, whose dead replicas
// re-queue their batches.
TEST(Serving, EveryRequestEndsInOneOutcome) {
  ServingConfig storm = small_serving(ArrivalShape::kPoisson);
  storm.experiment.faults = storm_plan();
  const std::pair<const char*, ServingConfig> cases[] = {
      {"poisson", small_serving(ArrivalShape::kPoisson)},
      {"diurnal", small_serving(ArrivalShape::kDiurnal)},
      {"flash-crowd", small_serving(ArrivalShape::kFlashCrowd)},
      {"crash storm", storm},
  };
  std::size_t shed_total = 0;
  std::size_t expired_total = 0;
  for (const auto& [name, cfg] : cases) {
    SCOPED_TRACE(name);
    const auto [report, requests] = drive_engine(cfg);
    std::size_t completed = 0, shed = 0, expired = 0, pending = 0;
    for (const Request& r : requests) {
      switch (r.outcome) {
        case RequestOutcome::kCompleted:
          ++completed;
          EXPECT_GE(r.completion, r.arrival) << "request " << r.id;
          break;
        case RequestOutcome::kShed:
          ++shed;
          EXPECT_EQ(r.completion, -1) << "request " << r.id;
          break;
        case RequestOutcome::kExpired:
          ++expired;
          break;
        case RequestOutcome::kPending:
          ++pending;
          break;
        case RequestOutcome::kDegraded:
          ADD_FAILURE() << "request " << r.id << " served degraded";
          break;
      }
    }
    EXPECT_EQ(report.offered, requests.size());
    EXPECT_EQ(report.admitted, completed + expired + pending);
    EXPECT_EQ(report.shed, shed);
    EXPECT_EQ(report.expired, expired);
    EXPECT_EQ(report.completed, completed);
    EXPECT_EQ(report.degraded, 0u);
    EXPECT_GT(completed, 0u);
    shed_total += shed;
    expired_total += expired;
  }
  // Both non-served outcomes were reached, so the checks above bit.
  EXPECT_GT(shed_total, 0u);
  EXPECT_GT(expired_total, 0u);
}

// prime() replays each service's arrivals with one queued at a time, so
// what it leaves queued follows the services and replicas, not the
// requests.
TEST(Serving, PrimeQueuesOneArrivalPerService) {
  const ServingConfig cfg = small_serving(ArrivalShape::kPoisson);
  const Deployment d = prime_deployment(cfg);
  std::size_t replicas = 0;
  for (const ServiceConfig& svc : cfg.services) {
    replicas += static_cast<std::size_t>(svc.min_replicas);
  }
  EXPECT_GT(d.engine->requests().size(), 500u);  // 60 qps over 10 s
  // An arrival per service, a pod arrival per initial replica, the
  // autoscaler's and the pump's cadences, and the batch pods' replay.
  EXPECT_LE(d.cluster->engine().pending_events(),
            cfg.services.size() + replicas + 3);
}

TEST(Serving, ObservabilityDoesNotPerturbTheRun) {
  const ServingConfig cfg = small_serving(ArrivalShape::kDiurnal);
  const auto bare = run_serving(cfg);

  obs::TraceSink trace;
  obs::MetricsRegistry metrics;
  RunObservability o;
  o.trace = &trace;
  o.metrics = &metrics;
  const auto observed = run_serving(cfg, o);

  EXPECT_EQ(bare.serve_digest, observed.serve_digest);
  EXPECT_EQ(bare.experiment.run_digest, observed.experiment.run_digest);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_GT(metrics.counter("serve.requests_offered").value(), 0u);
}

}  // namespace
}  // namespace knots::serve
