// Datacenter-scale throughput curves: nodes × pods × events/sec at
// 10 → 100 → 1k → 10k nodes, plus an inert-fabric digest gate at 1k nodes.
// Committed baseline lives in BENCH_scale.json.
//
//   --fast         10/100/1k-node points (CI smoke; the 1k point gates
//                  the 1M node-ticks/s floor)
//   --json         machine-readable BENCH_scale.json schema; includes a
//                  per-phase tick breakdown (advance / scrape / schedule /
//                  aggregator sort / event dispatch) from an instrumented
//                  1k-node run
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/table.hpp"
#include "knots/experiment.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace knots;

struct ScalePoint {
  int nodes = 0;
  SimTime window = 0;  ///< Arrival window; larger clusters use shorter ones.
};

struct ScaleResult {
  int nodes = 0;
  std::size_t pods = 0;
  std::uint64_t ticks = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0;
  std::uint64_t digest = 0;
};

/// Scale config: arrival rates grow with the node count so pods-per-node
/// stays at the paper's 10-node density, and telemetry retention shrinks
/// to a scheduler-sufficient window so a 10k-node cluster does not spend
/// its time faulting in ring buffers.
ExperimentConfig scale_config(int nodes, SimTime window) {
  ExperimentConfig cfg = ExperimentConfig::Builder{}
                             .mix(1)
                             .scheduler(sched::SchedulerKind::kPeakPrediction)
                             .nodes(nodes)
                             .duration(window)
                             .seed(42)
                             .load_scale(nodes / 10.0)
                             .build();
  // 1024 samples cover the widest scheduler lookback with 2× headroom
  // (PP's 5 s window / 10 ms tick = 500 samples); halving the rings also
  // halves the scrape's resident set.
  cfg.cluster.telemetry_retention = 1024;
  return cfg;
}

ScaleResult run_point(const ScalePoint& pt,
                      obs::MetricsRegistry* registry = nullptr) {
  const ExperimentConfig cfg = scale_config(pt.nodes, pt.window);
  const auto t0 = std::chrono::steady_clock::now();
  ExperimentReport report;
  if (registry != nullptr) {
    RunObservability obs_hooks;
    obs_hooks.metrics = registry;
    report = run_experiment(cfg, obs_hooks);
  } else {
    report = run_experiment(cfg);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return ScaleResult{pt.nodes,        report.pods_total, report.ticks,
                     report.events,   wall,              report.run_digest};
}

double node_ticks_per_sec(const ScaleResult& r) {
  return r.wall_seconds > 0
             ? static_cast<double>(r.ticks) * r.nodes / r.wall_seconds
             : 0.0;
}

/// Instrumented 1k-node run: where does a tick actually go? The phase
/// timers are KNOTS_PROF_SCOPE histograms the cluster resolves from the
/// registry; their sums are wall-ns attributable to each phase. Dispatch
/// covers whole event handlers, so it nests the others — report it as the
/// envelope, not a disjoint slice.
void record_phase_breakdown(bench::Session& session, const ScalePoint& pt) {
  obs::MetricsRegistry registry;
  const ScaleResult r = run_point(pt, &registry);
  const char* const kPhases[] = {
      "cluster.advance_ns",    "telemetry.scrape_ns", "sched.on_schedule_ns",
      "telemetry.agg_sort_ns", "sim.dispatch_ns",
  };
  std::vector<std::pair<std::string, double>> metrics = {
      {"nodes", static_cast<double>(r.nodes)},
      {"wall_seconds", r.wall_seconds},
      {"node_ticks_per_sec", node_ticks_per_sec(r)},
  };
  TablePrinter table("Per-phase tick breakdown (1k nodes)");
  table.columns({"phase", "total s", "% of wall", "samples"});
  for (const char* name : kPhases) {
    const obs::Histogram* h = registry.find_histogram(name);
    const double total_s = h != nullptr ? h->sum() * 1e-9 : 0.0;
    const double share =
        r.wall_seconds > 0 ? 100.0 * total_s / r.wall_seconds : 0.0;
    const std::uint64_t samples = h != nullptr ? h->count() : 0;
    table.row({name, fmt(total_s, 3), fmt(share, 1), std::to_string(samples)});
    // JSON keys: phase name with '.' → '_', e.g. cluster_advance_ns_total.
    std::string key = name;
    std::replace(key.begin(), key.end(), '.', '_');
    metrics.emplace_back(key + "_total_s", total_s);
    metrics.emplace_back(key + "_share_pct", share);
  }
  table.print(std::cout);
  session.record("phase_breakdown_" + std::to_string(pt.nodes) + "node",
                 std::move(metrics));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(argc, argv, "scale");

  std::vector<ScalePoint> points = {
      {10, 300 * kSec}, {100, 60 * kSec}, {1000, 20 * kSec}};
  if (!session.fast()) points.push_back({10000, 5 * kSec});

  TablePrinter table("Scale curve (mix 1, PP)");
  table.columns({"nodes", "pods", "ticks", "events", "wall s", "ticks/s",
                 "node-ticks/s", "events/s", "vs 10-node"});

  double baseline = 0;
  std::uint64_t digest_1000 = 0;
  SimTime window_1000 = 0;
  for (const ScalePoint& pt : points) {
    const ScaleResult r = run_point(pt);
    if (r.nodes == 1000) {
      digest_1000 = r.digest;
      window_1000 = pt.window;
    }
    const double nts = node_ticks_per_sec(r);
    if (r.nodes == 10) baseline = nts;
    const double speedup = baseline > 0 ? nts / baseline : 0.0;
    const double tps = r.wall_seconds > 0 ? r.ticks / r.wall_seconds : 0.0;
    const double eps = r.wall_seconds > 0 ? r.events / r.wall_seconds : 0.0;
    table.row({std::to_string(r.nodes), std::to_string(r.pods),
               std::to_string(r.ticks), std::to_string(r.events),
               fmt(r.wall_seconds, 3), fmt(tps, 1), fmt(nts, 1), fmt(eps, 1),
               fmt(speedup, 2) + "x"});
    session.record("e2e_" + std::to_string(r.nodes) + "node",
                   {{"nodes", static_cast<double>(r.nodes)},
                    {"pods", static_cast<double>(r.pods)},
                    {"ticks", static_cast<double>(r.ticks)},
                    {"events", static_cast<double>(r.events)},
                    {"wall_seconds", r.wall_seconds},
                    {"ticks_per_sec", tps},
                    {"node_ticks_per_sec", nts},
                    {"events_per_sec", eps},
                    {"speedup_vs_10node", speedup}});
  }
  table.print(std::cout);

  // Inert-fabric law at scale: a zero-latency fabric on the 1k-node point
  // must reproduce the fabric-free digest bit-for-bit — the per-node
  // topology bookkeeping may cost a little wall time but never semantics.
  {
    ExperimentConfig cfg = scale_config(1000, window_1000);
    cfg.cluster.fabric = net::FabricPlan::zero_latency(1000);
    const auto t0 = std::chrono::steady_clock::now();
    const ExperimentReport r = run_experiment(cfg);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (r.run_digest != digest_1000) {
      std::cerr << "bench_scale: inert fabric changed the 1k-node digest\n";
      return 1;
    }
    const double nts =
        wall > 0 ? static_cast<double>(r.ticks) * 1000 / wall : 0.0;
    std::cout << "1k-node inert-fabric point: digest match, "
              << fmt(nts, 1) << " node-ticks/s\n";
    session.record("e2e_1000node_inert_fabric",
                   {{"nodes", 1000},
                    {"wall_seconds", wall},
                    {"node_ticks_per_sec", nts},
                    {"digest_match", 1.0}});
  }

  // Phase breakdown only when a machine-readable report was asked for —
  // the extra instrumented run is not free on the headline path.
  if (session.json_requested()) {
    record_phase_breakdown(
        session, ScalePoint{1000, session.fast() ? 10 * kSec : 20 * kSec});
  }
  return 0;
}
