// Google-benchmark microbenchmarks of the hot paths: telemetry ingest and
// window queries, forecaster fits, correlation, the event queue, a periodic
// tick chain and far arrivals scheduled up front, full cluster runs, a DL
// run on a contended fabric, the per-tick invariant audit, one CBP or PP
// scheduler round at datacenter scale, and one GPU's per-resident usage
// write.
#include <benchmark/benchmark.h>

#include "cluster/cluster.hpp"
#include "core/rng.hpp"
#include "dlsim/dl_cluster.hpp"
#include "dlsim/dl_policies.hpp"
#include "gpu/gpu_device.hpp"
#include "knots/config.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "sim/simulation.hpp"
#include "stats/arima.hpp"
#include "stats/correlation.hpp"
#include "stats/regressors.hpp"
#include "telemetry/timeseries_db.hpp"
#include "verify/invariant_checker.hpp"
#include "workload/app_mix.hpp"
#include "workload/load_generator.hpp"

namespace {

using namespace knots;

void BM_TsdbIngest(benchmark::State& state) {
  telemetry::TimeSeriesDb db(GpuId{0}, 1);
  SimTime t = 0;
  for (auto _ : state) {
    db.write(GpuId{0}, {t++, 0.5});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsdbIngest);

void BM_TsdbWindowQuery(benchmark::State& state) {
  telemetry::TimeSeriesDb db(GpuId{0}, 1);
  const auto n = static_cast<SimTime>(state.range(0));
  for (SimTime t = 0; t < n; ++t) {
    db.write(GpuId{0}, {t, 0.5});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.query_window(GpuId{0}, n / 2));
  }
}
BENCHMARK(BM_TsdbWindowQuery)->Arg(1000)->Arg(10000)->Arg(60000);

void BM_ArimaFit(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> window;
  for (int i = 0; i < state.range(0); ++i) {
    window.push_back(rng.uniform());
  }
  stats::Arima1 model;
  for (auto _ : state) {
    model.fit(window);
    benchmark::DoNotOptimize(model.predict_next());
  }
}
BENCHMARK(BM_ArimaFit)->Arg(50)->Arg(500)->Arg(5000);

void BM_TheilSenFit(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> window;
  for (int i = 0; i < state.range(0); ++i) window.push_back(rng.uniform());
  stats::TheilSen model;
  for (auto _ : state) {
    model.fit(window);
    benchmark::DoNotOptimize(model.predict_next());
  }
}
BENCHMARK(BM_TheilSenFit)->Arg(50)->Arg(500);

void BM_Spearman(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> x, y;
  for (int i = 0; i < state.range(0); ++i) {
    x.push_back(rng.uniform());
    y.push_back(rng.uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::spearman(x, y));
  }
}
BENCHMARK(BM_Spearman)->Arg(64)->Arg(1024);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at((i * 37) % 997, [] {});
    }
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_PeriodicTick(benchmark::State& state) {
  // One tick of a schedule_periodic chain alone on the engine, at the
  // period in the arg (us): 10 ms is the pod cluster's tick, 1 s the DL
  // engine's, which leaves about 121 empty ~8.2 ms buckets between ticks.
  const SimTime period = state.range(0);
  sim::Simulation sim;
  sim::schedule_periodic(sim, 0, period, [](SimTime) { return true; });
  sim.run_until(0);
  for (auto _ : state) {
    sim.run_until(sim.now() + period);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PeriodicTick)->Arg(10000)->Arg(1000000);

void BM_FarArrivals(benchmark::State& state) {
  // ServingEngine::prime's shape: three services' Poisson arrivals over a
  // 300 s window, 100k each, scheduled up front one ascending run per
  // service, so nearly every one waits on the queue's far path. A 10 ms
  // cluster tick runs alongside and every 30 s schedules one far one-shot
  // behind the newest arrival; then the engine drains.
  constexpr SimTime kWindow = 300 * kSec;
  constexpr int kPerStream = 100000;
  constexpr SimTime kTick = 10 * kMsec;
  constexpr std::uint64_t kTicksPerFar = 30 * kSec / kTick;
  std::vector<std::vector<SimTime>> streams(3);
  Rng rng(1);
  for (auto& stream : streams) {
    double t = 0;
    for (int i = 0; i < kPerStream; ++i) {
      t += rng.exponential(static_cast<double>(kWindow) / kPerStream);
      stream.push_back(static_cast<SimTime>(t));
    }
  }
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    for (const auto& stream : streams) {
      for (const SimTime t : stream) sim.schedule_at(t, [] {});
    }
    std::uint64_t ticks = 0;
    sim::schedule_periodic(sim, kTick, kTick, [&](SimTime now) {
      if (++ticks % kTicksPerFar == 0) sim.schedule_at(now + 30 * kSec, [] {});
      return now < kWindow;
    });
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_processed());
    events += sim.events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_FarArrivals)->Unit(benchmark::kMillisecond);

void BM_FullClusterRun(benchmark::State& state) {
  const auto kind = static_cast<sched::SchedulerKind>(state.range(0));
  for (auto _ : state) {
    auto scheduler = sched::make_scheduler(kind);
    cluster::ClusterConfig cfg;
    cfg.nodes = 10;
    cluster::Cluster cl(cfg, *scheduler);
    workload::LoadGenConfig wl;
    wl.duration = 60 * kSec;
    cl.load(workload::generate_workload(workload::app_mix(1), wl, Rng(3)));
    cl.run();
    benchmark::DoNotOptimize(cl.completed_count());
  }
}
BENCHMARK(BM_FullClusterRun)
    ->Arg(static_cast<int>(sched::SchedulerKind::kUniform))
    ->Arg(static_cast<int>(sched::SchedulerKind::kResourceAgnostic))
    ->Arg(static_cast<int>(sched::SchedulerKind::kCbp))
    ->Arg(static_cast<int>(sched::SchedulerKind::kPeakPrediction))
    ->Unit(benchmark::kMillisecond);

void BM_DlSimRun(benchmark::State& state) {
  // One full DL run on the shared substrate (event engine + GpuDevice +
  // digest): the per-policy cost of the unified path, small 4x4 topology.
  const auto& policy =
      dlsim::kDlPolicyNames[static_cast<std::size_t>(state.range(0))];
  dlsim::DlClusterConfig cluster;
  cluster.nodes = 4;
  cluster.gpus_per_node = 4;
  dlsim::DlWorkloadConfig wl;
  wl.dlt_jobs = 40;
  wl.dli_queries = 150;
  wl.window = 2 * kHour;
  for (auto _ : state) {
    const auto result =
        dlsim::run_dl_simulation(std::string(policy), cluster, wl, 7);
    benchmark::DoNotOptimize(result.run_digest);
  }
}
BENCHMARK(BM_DlSimRun)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_DlFabricRun(benchmark::State& state) {
  // The perfbench dl-fabric shape — 8x8 GPUs, an auto fabric with NVLink
  // inside a node, a 256 MB all-reduce per step, cbp-pp — at a quarter of
  // its 12 h window and jobs (same load per GPU), so one run takes tens of
  // ms. job_steps_per_s is ROADMAP's dlsim rate: simulated one-second
  // training steps per wall second.
  dlsim::DlClusterConfig cluster;
  cluster.nodes = 8;
  net::AutoFabricOptions options;
  options.intra_node_mb_per_s = cluster.gpu.nvlink_mbps;
  cluster.fabric = net::FabricPlan::auto_derive(cluster.nodes, options);
  cluster.allreduce_mb_per_step = 256.0;
  dlsim::DlWorkloadConfig wl;
  wl.dlt_jobs = 32;
  wl.dli_queries = 350;
  wl.window = 3 * kHour;
  constexpr std::uint64_t kSeed = 1;
  const auto workload =
      dlsim::generate_dl_workload(wl, Rng(kSeed).fork(1));
  dlsim::register_dl_schedulers();
  double steps = 0;
  for (auto _ : state) {
    auto scheduler = sched::make_scheduler("cbp-pp");
    dlsim::DlEngine engine(cluster,
                           dynamic_cast<dlsim::DlScheduler&>(*scheduler),
                           kSeed);
    engine.load(workload);
    engine.run();
    double run_steps = 0;
    for (const auto& job : engine.jobs()) {
      run_steps += static_cast<double>(job.progress) /
                   static_cast<double>(cluster.step);
    }
    steps += run_steps;
    benchmark::DoNotOptimize(engine.digest().value());
  }
  state.counters["job_steps_per_s"] =
      benchmark::Counter(steps, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DlFabricRun)->Unit(benchmark::kMillisecond);

void BM_TraceRecord(benchmark::State& state) {
  obs::TraceSink sink;
  SimTime t = 0;
  for (auto _ : state) {
    sink.record(t++, obs::EventKind::kPlace, 1, 2, 1024.0);
    if (sink.size() >= 1u << 20) sink.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecord);

void BM_FullClusterRunTraced(benchmark::State& state) {
  // CBP run with a live sink + registry attached; compare against the CBP
  // row of BM_FullClusterRun for the end-to-end observability overhead.
  for (auto _ : state) {
    auto scheduler = sched::make_scheduler(sched::SchedulerKind::kCbp);
    cluster::ClusterConfig cfg;
    cfg.nodes = 10;
    cluster::Cluster cl(cfg, *scheduler);
    obs::TraceSink trace;
    obs::MetricsRegistry metrics;
    cl.set_trace_sink(&trace);
    cl.set_metrics_registry(&metrics);
    workload::LoadGenConfig wl;
    wl.duration = 60 * kSec;
    cl.load(workload::generate_workload(workload::app_mix(1), wl, Rng(3)));
    cl.run();
    benchmark::DoNotOptimize(trace.size());
  }
}
BENCHMARK(BM_FullClusterRunTraced)->Unit(benchmark::kMillisecond);

/// Stops the engine at every tick end, so a bench can hold a cluster at one
/// tick's rest state and step it a tick at a time.
class StopAtTickEnd final : public cluster::ClusterObserver {
 public:
  explicit StopAtTickEnd(cluster::Cluster& cluster) : cluster_(cluster) {}
  void on_tick_end(const cluster::Cluster&) override {
    cluster_.engine().request_stop();
  }

 private:
  cluster::Cluster& cluster_;
};

void BM_InvariantAudit(benchmark::State& state) {
  // One InvariantChecker::on_tick_end on a cluster held mid-run, in the two
  // pod-table shapes of the perfbench workloads. Arg 1000 is pods-1k: 1,000
  // P100 nodes under PP at the testbed's pod density, held at 28 s with
  // 21,085 pods and ~770 live (the run's average). Arg 72 is fleet-serve's
  // table: 72 nodes under CBP, held at 20 s with ~3,000 pods and ~50 live.
  // Batch pods run ten times shorter and arrive ten times faster, as in
  // perfbench, so occupancy stays at that density.
  const int nodes = static_cast<int>(state.range(0));
  const bool datacenter = nodes >= 1000;
  const SimTime hold_at = (datacenter ? 28 : 20) * kSec;
  ExperimentConfig cfg =
      ExperimentConfig::Builder{}
          .mix(1)
          .scheduler(datacenter ? sched::SchedulerKind::kPeakPrediction
                                : sched::SchedulerKind::kCbp)
          .nodes(nodes)
          .duration((datacenter ? 20 : 40) * kSec)
          .seed(1)
          .load_scale(nodes / 10.0)
          .build();
  cfg.workload.min_time_scale /= 10.0;
  cfg.workload.max_time_scale /= 10.0;
  cfg.workload.batch_rate_scale *= 10.0;
  cfg.cluster.seed = cfg.seed;
  auto scheduler = sched::make_scheduler(cfg.scheduler);
  cluster::Cluster cl(cfg.cluster, *scheduler);
  cl.load(workload::generate_workload(workload::app_mix(cfg.mix_id),
                                      cfg.workload, Rng(cfg.seed)));
  // The checker audits every real tick from the first, as in a run, so its
  // state mirror follows the run's transitions.
  verify::InvariantChecker checker(verify::InvariantOptions{
      .provision_ceiling_ratio = 1.0, .fatal = false});
  StopAtTickEnd stop(cl);
  cl.add_observer(&checker);
  cl.add_observer(&stop);
  cl.run();  // Returns at the end of the first tick.
  while (cl.now() < hold_at) cl.engine().run_all();

  // Audits must see the clock move, so each timed one runs at the next
  // microsecond of the same rest state; the next real tick runs (untimed)
  // just before its event would fire and brings its few state changes.
  SimTime next_tick = cl.now() + cluster::kTick;
  for (auto _ : state) {
    if (cl.now() + 1 >= next_tick) {
      state.PauseTiming();
      cl.engine().run_all();
      next_tick = cl.now() + cluster::kTick;
      state.ResumeTiming();
    }
    cl.engine().run_until(cl.now() + 1);
    checker.on_tick_end(cl);
  }
  if (!checker.ok()) state.SkipWithError("the audit found a violation");
  std::size_t live = 0;
  for (std::uint8_t s : cl.pod_state_table()) {
    live += s == static_cast<std::uint8_t>(cluster::PodState::kStarting) ||
            s == static_cast<std::uint8_t>(cluster::PodState::kRunning);
  }
  state.counters["pods"] = static_cast<double>(cl.pod_count());
  state.counters["live"] = static_cast<double>(live);
}
BENCHMARK(BM_InvariantAudit)->Arg(1000)->Arg(72)->Unit(benchmark::kMicrosecond);

void BM_SchedulerRound(benchmark::State& state, sched::SchedulerKind kind) {
  // One CBP or PP round in the pods-1k shape: 1,000 P100 nodes, app mix 1
  // at the testbed's pod density over a 20 s arrival window (batch pods ten
  // times shorter and ten times more frequent, as in perfbench), telemetry
  // rings of 1,024 rows. The cluster is held at 10 s, mid-window, then each
  // iteration steps one whole tick with a metrics registry attached.
  // `round_ns` is the mean sched.on_schedule_ns over the stepped ticks, the
  // round alone; the iteration time is the whole tick. The iteration count
  // is fixed so every build steps the same 200 ticks.
  constexpr int kNodes = 1000;
  constexpr SimTime kHoldAt = 10 * kSec;
  ExperimentConfig cfg = ExperimentConfig::Builder{}
                             .mix(1)
                             .scheduler(kind)
                             .nodes(kNodes)
                             .duration(20 * kSec)
                             .seed(1)
                             .load_scale(kNodes / 10.0)
                             .build();
  cfg.workload.min_time_scale /= 10.0;
  cfg.workload.max_time_scale /= 10.0;
  cfg.workload.batch_rate_scale *= 10.0;
  cfg.cluster.seed = cfg.seed;
  cfg.cluster.telemetry_retention = 1024;
  auto scheduler = sched::make_scheduler(cfg.scheduler);
  cluster::Cluster cl(cfg.cluster, *scheduler);
  cl.load(workload::generate_workload(workload::app_mix(cfg.mix_id),
                                      cfg.workload, Rng(cfg.seed)));
  StopAtTickEnd stop(cl);
  cl.add_observer(&stop);
  cl.run();  // Returns at the end of the first tick.
  while (cl.now() < kHoldAt) cl.engine().run_all();

  obs::MetricsRegistry registry;
  cl.set_metrics_registry(&registry);
  for (auto _ : state) cl.engine().run_all();
  const obs::Histogram& rounds = registry.histogram("sched.on_schedule_ns");
  if (rounds.count() != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a step ran other than one scheduler round");
  }
  state.counters["round_ns"] = rounds.mean();
}
BENCHMARK_CAPTURE(BM_SchedulerRound, CBP, sched::SchedulerKind::kCbp)
    ->Iterations(200)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerRound, PP, sched::SchedulerKind::kPeakPrediction)
    ->Iterations(200)
    ->Unit(benchmark::kMillisecond);

void BM_DeviceSetUsage(benchmark::State& state) {
  // The pod advance's device write: one GPU with k residents, set_usage on
  // each in turn, round-robin (a lookup plus a totals fold over every
  // resident). pods-1k averages about six residents per occupied GPU.
  const auto k = static_cast<std::int32_t>(state.range(0));
  gpu::GpuDevice dev(GpuId{0});
  std::vector<PodId> pods;
  for (std::int32_t i = 0; i < k; ++i) {
    // Attached out of id order, as placements arrive.
    pods.push_back(PodId{(i * 5) % k * 7 + 3});
    if (!dev.attach(pods.back(), 900.0)) state.SkipWithError("attach failed");
  }
  const gpu::Usage usage{0.2, 800.0, 100.0, 50.0};
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.set_usage(pods[next], usage));
    if (++next == pods.size()) next = 0;
  }
  benchmark::DoNotOptimize(dev.totals());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceSetUsage)->Arg(1)->Arg(6)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
