// Google-benchmark microbenchmarks of the hot paths: telemetry ingest and
// window queries, forecaster fits, correlation, the event queue, and one
// full scheduler round.
#include <benchmark/benchmark.h>

#include "cluster/cluster.hpp"
#include "core/rng.hpp"
#include "dlsim/dl_cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "sim/simulation.hpp"
#include "stats/arima.hpp"
#include "stats/correlation.hpp"
#include "stats/regressors.hpp"
#include "telemetry/timeseries_db.hpp"
#include "workload/load_generator.hpp"

namespace {

using namespace knots;

void BM_TsdbIngest(benchmark::State& state) {
  telemetry::TimeSeriesDb db(GpuId{0}, 1);
  SimTime t = 0;
  for (auto _ : state) {
    db.write(GpuId{0}, {t++, 0.5, 0.5, 150.0, 0.0, 0.0});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsdbIngest);

void BM_TsdbWindowQuery(benchmark::State& state) {
  telemetry::TimeSeriesDb db(GpuId{0}, 1);
  const auto n = static_cast<SimTime>(state.range(0));
  for (SimTime t = 0; t < n; ++t) {
    db.write(GpuId{0}, {t, 0.5, 0.5, 150.0, 0.0, 0.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.query_window(GpuId{0}, telemetry::Metric::kSmUtil, n / 2));
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

}  // namespace

BENCHMARK_MAIN();
