// Telemetry hot-path microbenchmarks + end-to-end sweep throughput.
//
// Times the per-tick telemetry layer the way the simulator drives it — the
// whole scrape of a 1,000-node cluster (heartbeat rows + the aggregator's
// lane refresh) and PP's 500-sample window read — plus the window-percentile
// primitives both the naive way (vector materialization, copy + full sort
// per percentile) and the incremental way (RollingQuantile). Heap
// allocations are counted via a replaced operator new, and the run finishes
// with the 10-node four-scheduler sweep measured in ticks/sec.
//
//   bench_micro_telemetry --json BENCH_perf.json   # machine-readable output
//   bench_micro_telemetry --fast                   # CI smoke sizing
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "bench_common.hpp"
#include "core/page_arena.hpp"
#include "core/percentile.hpp"
#include "core/rng.hpp"
#include "stats/rolling.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/timeseries_db.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Allocation observability: every heap allocation in this binary bumps the
// counter, so each benchmark can report allocs/op alongside ns/op.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace knots;

struct Measurement {
  double ns_per_op = 0;
  double allocs_per_op = 0;
};

/// Times `op` over `iters` iterations and reports ns/op + allocs/op.
template <typename F>
Measurement measure(std::size_t iters, F&& op) {
  // Warmup lets scratch buffers and caches reach steady state — the
  // steady-state allocation count is the claim being verified.
  for (std::size_t i = 0; i < std::min<std::size_t>(iters, 100); ++i) op(i);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) op(i);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
  Measurement m;
  m.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(iters);
  m.allocs_per_op = static_cast<double>(allocs1 - allocs0) /
                    static_cast<double>(iters);
  return m;
}

std::vector<std::pair<std::string, double>> as_metrics(const Measurement& m) {
  return {{"ns_per_op", m.ns_per_op}, {"allocs_per_op", m.allocs_per_op}};
}

constexpr std::size_t kWindow = 512;  ///< Samples per scheduler window.

/// One GPU's heartbeat carrying `value` in every column.
telemetry::Row row_of(SimTime t, double value) {
  return {t, value, value, value, value, value};
}

telemetry::TimeSeriesDb prefilled_db(std::size_t rows) {
  telemetry::TimeSeriesDb db(GpuId{0}, 1);
  Rng rng(7);
  for (std::size_t t = 0; t < rows; ++t) {
    db.write(GpuId{0}, row_of(static_cast<SimTime>(t), rng.uniform()));
  }
  return db;
}

/// The pre-PR2 query shape: materialize the window into a fresh vector,
/// then one copy + full sort per percentile.
double naive_window_percentiles(const telemetry::TimeSeriesDb& db,
                                SimTime since) {
  const auto window =
      db.query_window(GpuId{0}, telemetry::Metric::kMemUtil, since);
  auto copy_a = window;
  std::sort(copy_a.begin(), copy_a.end());
  const double p50 = percentile_sorted(copy_a, 50.0);
  auto copy_b = window;
  std::sort(copy_b.begin(), copy_b.end());
  const double p99 = percentile_sorted(copy_b, 99.0);
  return p50 + p99;
}

/// A pods-1k-shaped telemetry tier: 1,000 single-P100 nodes on one shared
/// arena with 1024-row retention, three in four GPUs running a pod, the
/// cluster's noise level, and an aggregator with query demand (PP's).
class ScrapeFixture {
 public:
  static constexpr int kNodes = 1000;
  static constexpr std::size_t kRetention = 1024;

  ScrapeFixture() {
    gpu::NodeSpec spec;
    spec.gpus_per_node = 1;
    for (int n = 0; n < kNodes; ++n) {
      nodes_.push_back(std::make_unique<gpu::GpuNode>(NodeId{n}, spec, n));
      dbs_.push_back(std::make_unique<telemetry::TimeSeriesDb>(
          GpuId{n}, 1, kRetention, &arena_));
      agg_.register_node(*nodes_.back(), *dbs_.back());
      auto& dev = nodes_.back()->gpu(0);
      if (n % 4 != 3 && dev.attach(PodId{n + 1}, 8000.0)) {
        (void)dev.set_usage(PodId{n + 1},
                            {0.3 + 0.1 * (n % 5), 2000.0 + 500.0 * (n % 9),
                             800.0, 400.0});
      }
    }
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      samplers_.emplace_back(*nodes_[n], *dbs_[n], Rng(1000 + n), 0.005);
    }
    agg_.set_lane_partition(std::vector<std::uint32_t>(nodes_.size(), 0), 1);
    (void)agg_.active_sorted_by_free_memory();  // PP's demand, as in a run
    // Fill every ring once so the timed ticks write into wrapped rings.
    for (std::size_t t = 0; t < kRetention; ++t) scrape();
  }

  /// One tick's telemetry phase, as Cluster::tick runs it.
  void scrape() {
    ++now_;
    agg_.begin_tick(now_);
    for (auto& sampler : samplers_) sampler.sample(now_);
    agg_.refresh_lane(0);
  }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] const telemetry::UtilizationAggregator& aggregator() const {
    return agg_;
  }

 private:
  core::PageArena arena_;
  std::vector<std::unique_ptr<gpu::GpuNode>> nodes_;
  std::vector<std::unique_ptr<telemetry::TimeSeriesDb>> dbs_;
  std::vector<telemetry::HeartbeatSampler> samplers_;
  telemetry::UtilizationAggregator agg_;
  SimTime now_ = 0;
};

void bench_telemetry_micro(bench::Session& session, std::size_t iters) {
  // -- Ingest: one heartbeat row --
  {
    telemetry::TimeSeriesDb db(GpuId{0}, 1);
    SimTime t = 0;
    const auto m = measure(
        iters, [&](std::size_t) { db.write(GpuId{0}, row_of(t++, 0.5)); });
    session.record("tsdb_ingest", as_metrics(m));
  }

  // -- The scrape: heartbeat rows + lane refresh for 1,000 nodes --
  {
    ScrapeFixture fx;
    const std::size_t ticks = std::max<std::size_t>(iters / 10, 100);
    const auto m = measure(ticks, [&](std::size_t) { fx.scrape(); });
    const double per_node = m.ns_per_op / ScrapeFixture::kNodes;
    session.record("scrape_1000node",
                   {{"ns_per_node_tick", per_node},
                    {"allocs_per_tick", m.allocs_per_op}});
    std::cout << "scrape (1,000 nodes, 3/4 busy): " << fmt(per_node, 0)
              << " ns per node-tick\n";

    // -- PP's window read: 500 rows of one GPU's memory column --
    std::vector<double> scratch;
    double sink = 0;
    const SimTime window = 499;  // rows at now-499 .. now
    const auto w = measure(iters, [&](std::size_t i) {
      const GpuId gpu{static_cast<std::int32_t>(i % ScrapeFixture::kNodes)};
      fx.aggregator().window_into(gpu, telemetry::Metric::kMemUtil, fx.now(),
                                  window, scratch);
      sink += static_cast<double>(scratch.size());
    });
    if (sink < 0) std::cout << sink;  // defeat dead-code elimination
    session.record("pp_window_into_500", as_metrics(w));
  }

  // -- Window materialization into a fresh vector --
  {
    const auto db = prefilled_db(4 * kWindow);
    const auto since = static_cast<SimTime>(3 * kWindow);
    double sink = 0;
    const auto vec = measure(iters, [&](std::size_t) {
      sink += static_cast<double>(
          db.query_window(GpuId{0}, telemetry::Metric::kMemUtil, since).size());
    });
    if (sink < 0) std::cout << sink;
    session.record("window_query_vector", as_metrics(vec));
  }

  // -- The headline: per-tick window percentiles, naive vs incremental --
  // Op = ingest one sample, then read the window's p50 and p99 (what a
  // utilization-aware scheduler does per GPU per tick).
  double naive_ns = 0, fast_ns = 0;
  {
    telemetry::TimeSeriesDb db = prefilled_db(kWindow);
    SimTime t = kWindow;
    double sink = 0;
    const auto m = measure(iters, [&](std::size_t) {
      db.write(GpuId{0},
               row_of(t, 0.25 + 0.5 * static_cast<double>(t % 7) / 7.0));
      sink += naive_window_percentiles(db, t - static_cast<SimTime>(kWindow));
      ++t;
    });
    if (sink < 0) std::cout << sink;
    naive_ns = m.ns_per_op;
    session.record("window_percentile_naive", as_metrics(m));
  }
  {
    stats::RollingQuantile q(kWindow);
    Rng rng(7);
    for (std::size_t i = 0; i < kWindow; ++i) q.push(rng.uniform());
    SimTime t = kWindow;
    double sink = 0;
    const auto m = measure(iters, [&](std::size_t) {
      q.push(0.25 + 0.5 * static_cast<double>(t % 7) / 7.0);
      sink += q.quantile(50.0) + q.quantile(99.0);
      ++t;
    });
    if (sink < 0) std::cout << sink;
    fast_ns = m.ns_per_op;
    session.record("window_percentile_incremental", as_metrics(m));
  }
  const double speedup = fast_ns > 0 ? naive_ns / fast_ns : 0.0;
  session.record("window_percentile_speedup", {{"x", speedup}});
  std::cout << "window percentile (W=" << kWindow << "): naive "
            << fmt(naive_ns, 0) << " ns/op, incremental " << fmt(fast_ns, 0)
            << " ns/op -> " << fmt(speedup, 1) << "x\n";

  // -- Single-percentile selection vs full sort --
  {
    Rng rng(11);
    std::vector<double> data(4096);
    for (auto& v : data) v = rng.uniform();
    double sink = 0;
    const auto select = measure(iters, [&](std::size_t) {
      sink += percentile(data, 99.0);
    });
    const auto fullsort = measure(iters, [&](std::size_t) {
      auto copy = data;
      std::sort(copy.begin(), copy.end());
      sink += percentile_sorted(copy, 99.0);
    });
    if (sink < 0) std::cout << sink;
    session.record("percentile_select_4096", as_metrics(select));
    session.record("percentile_fullsort_4096", as_metrics(fullsort));
  }
}

void bench_sweep_e2e(bench::Session& session, bool fast) {
  const std::vector<sched::SchedulerKind> kinds = {
      sched::SchedulerKind::kUniform,
      sched::SchedulerKind::kResourceAgnostic, sched::SchedulerKind::kCbp,
      sched::SchedulerKind::kPeakPrediction};
  ExperimentConfig base = bench::bench_config(1, kinds[0]);
  base.workload.duration = (fast ? 30 : 120) * kSec;
  SweepGrid grid;
  grid.schedulers = kinds;
  grid.seeds = {42, 43};
  grid.load_scales = {1.0};

  const auto t0 = std::chrono::steady_clock::now();
  const auto results = run_sweep(base, grid);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t ticks = 0;
  for (const auto& r : results) ticks += r.report.ticks;
  const double ticks_per_sec = static_cast<double>(ticks) / wall;
  session.record("e2e_sweep_10node",
                 {{"runs", static_cast<double>(results.size())},
                  {"ticks", static_cast<double>(ticks)},
                  {"wall_seconds", wall},
                  {"ticks_per_sec", ticks_per_sec},
                  {"ns_per_tick", 1e9 * wall / static_cast<double>(ticks)}});
  std::cout << "e2e sweep: " << results.size() << " runs, " << ticks
            << " ticks in " << fmt(wall, 2) << " s -> "
            << fmt(ticks_per_sec, 0) << " ticks/sec\n";
}

}  // namespace

int main(int argc, char** argv) {
  knots::bench::Session session(argc, argv, "micro_telemetry");
  const std::size_t iters = session.fast() ? 2000 : 20000;
  bench_telemetry_micro(session, iters);
  bench_sweep_e2e(session, session.fast());
  return 0;
}
