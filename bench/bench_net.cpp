// Fabric microbenches: max-min fair-share solver throughput, fluid-flow
// engine event rate on a contended leaf-spine fabric, and the end-to-end
// overhead a live fabric adds to a cluster run. Committed baseline lives
// in BENCH_net.json.
//
//   --fast   shrinks the solver and flow-chain workloads to CI smoke sizes
//   --json   machine-readable BENCH_net.json schema
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "fault/fault_plan.hpp"
#include "net/fabric.hpp"
#include "net/fair_share.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace knots;

/// The contended cluster point: PP over an auto-derived leaf-spine fabric
/// with real 2 GB image pulls and a mid-run ToR uplink outage. The committed
/// flow-rate baseline uses exactly this config.
ExperimentConfig contended_config(int nodes, SimTime window) {
  fault::FaultPlan faults;
  faults.link_down("tor0-up", window / 3, window / 6);
  return ExperimentConfig::Builder{}
      .scheduler(sched::SchedulerKind::kPeakPrediction)
      .nodes(nodes)
      .duration(window)
      .seed(42)
      .load_scale(nodes / 10.0)
      .auto_fabric()
      .image_mb(2048.0)
      .faults(std::move(faults))
      .build();
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Solver throughput on a synthetic 64-node leaf-spine demand set: every
/// flow crosses a 5-link cross-ToR route, so each solve redistributes
/// hundreds of flows over shared ToR uplinks and one spine.
void bench_fair_share(bench::Session& session) {
  constexpr int kNodes = 64;
  constexpr int kNodesPerTor = 8;
  constexpr int kTors = kNodes / kNodesPerTor;
  // Canonical link layout: [0..63] node uplinks, [64..71] ToR uplinks,
  // [72] spine.
  const int spine = kNodes + kTors;
  std::vector<double> caps(static_cast<std::size_t>(spine) + 1, 1250.0);
  for (int t = 0; t < kTors; ++t) caps[static_cast<std::size_t>(kNodes + t)] = 5000.0;
  caps[static_cast<std::size_t>(spine)] = 40000.0;

  constexpr int kFlows = 512;
  Rng rng(0xBE9C0DEu);
  std::vector<net::FlowDemand> demands;
  demands.reserve(kFlows);
  for (int f = 0; f < kFlows; ++f) {
    const int src = static_cast<int>(rng.uniform_int(0, kNodes - 1));
    int dst = static_cast<int>(rng.uniform_int(0, kNodes - 1));
    if (dst == src) dst = (dst + 1) % kNodes;
    net::FlowDemand d;
    d.links = {src, kNodes + src / kNodesPerTor, spine,
               kNodes + dst / kNodesPerTor, dst};
    demands.push_back(std::move(d));
  }

  const int iters = session.fast() ? 200 : 2000;
  const auto t0 = std::chrono::steady_clock::now();
  double checksum = 0;
  for (int i = 0; i < iters; ++i) {
    const auto rates = net::fair_share(demands, caps);
    checksum += rates[0];
  }
  const double wall = seconds_since(t0);
  const double solves_per_sec = wall > 0 ? iters / wall : 0.0;
  std::cout << "fair_share: " << kFlows << " flows / "
            << caps.size() << " links, " << fmt(solves_per_sec, 0)
            << " solves/s (checksum " << fmt(checksum, 1) << ")\n";
  session.record("fair_share_solver",
                 {{"flows", kFlows},
                  {"links", static_cast<double>(caps.size())},
                  {"iters", static_cast<double>(iters)},
                  {"wall_seconds", wall},
                  {"solves_per_sec", solves_per_sec}});
}

/// Fluid-flow engine event rate: 64 concurrent cross-ToR transfers on a
/// 32-node fabric, each finish immediately starting the next, so every
/// completion triggers a full rate recomputation over the contended links.
void bench_flow_chain(bench::Session& session) {
  constexpr int kNodes = 32;
  const int total = session.fast() ? 5000 : 50000;
  net::Fabric fabric(net::FabricPlan::auto_derive(kNodes), kNodes);
  sim::Simulation sim;
  fabric.bind(&sim);

  Rng rng(0x5EEDF00Du);
  int started = 0;
  std::function<void(SimTime)> launch = [&](SimTime) {
    if (started >= total) return;
    ++started;
    const int src = static_cast<int>(rng.uniform_int(0, kNodes - 1));
    int dst = static_cast<int>(rng.uniform_int(0, kNodes - 1));
    if (dst == src) dst = (dst + 1) % kNodes;
    fabric.start_flow(net::FlowKind::kMigration, src, dst,
                      64.0 + 192.0 * rng.uniform(), launch);
  };
  constexpr int kConcurrent = 64;
  sim.schedule_at(0, [&] {
    for (int i = 0; i < kConcurrent; ++i) launch(0);
  });

  const auto t0 = std::chrono::steady_clock::now();
  sim.run_all();
  const double wall = seconds_since(t0);
  const auto& stats = fabric.stats();
  const double flows_per_sec =
      wall > 0 ? static_cast<double>(stats.flows_finished) / wall : 0.0;
  std::cout << "flow chain: " << stats.flows_finished << " flows ("
            << fmt(stats.mb_transferred / 1024.0, 1) << " GB, "
            << stats.flows_contended << " contended), "
            << fmt(flows_per_sec, 0) << " flows/s\n";
  session.record("flow_chain",
                 {{"nodes", kNodes},
                  {"concurrent", kConcurrent},
                  {"flows", static_cast<double>(stats.flows_finished)},
                  {"contended", static_cast<double>(stats.flows_contended)},
                  {"mb_transferred", stats.mb_transferred},
                  {"wall_seconds", wall},
                  {"flows_per_sec", flows_per_sec}});
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(argc, argv, "net");

  bench_fair_share(session);
  bench_flow_chain(session);

  // End-to-end: what does a live fabric cost a cluster run, and how fast
  // does the contended pipeline move image pulls? The flow rate is the
  // committed CI gate (BENCH_net.json, 80% floor).
  const int nodes = 100;
  const SimTime window = session.fast() ? 30 * kSec : 60 * kSec;
  const auto bare_cfg = ExperimentConfig::Builder{}
                            .scheduler(sched::SchedulerKind::kPeakPrediction)
                            .nodes(nodes)
                            .duration(window)
                            .seed(42)
                            .load_scale(nodes / 10.0)
                            .build();
  const auto t_bare = std::chrono::steady_clock::now();
  const auto bare = run_experiment(bare_cfg);
  const double bare_wall = seconds_since(t_bare);

  const auto t_fab = std::chrono::steady_clock::now();
  const auto fabric = run_experiment(contended_config(nodes, window));
  const double fab_wall = seconds_since(t_fab);

  const double flows_per_sec =
      fab_wall > 0 ? static_cast<double>(fabric.flows_finished) / fab_wall
                   : 0.0;
  const double overhead_pct =
      bare_wall > 0 ? 100.0 * (fab_wall - bare_wall) / bare_wall : 0.0;

  TablePrinter table("Contended cluster run (100 nodes, PP, " +
                     std::to_string(window / kSec) + " s window)");
  table.columns({"config", "wall s", "flows", "contended", "GB moved",
                 "flows/s"});
  table.row({"bare", fmt(bare_wall, 3), "0", "0", "0", "-"});
  table.row({"auto fabric", fmt(fab_wall, 3),
             std::to_string(fabric.flows_finished),
             std::to_string(fabric.flows_contended),
             fmt(fabric.mb_transferred / 1024.0, 1), fmt(flows_per_sec, 0)});
  table.print(std::cout);
  std::cout << "fabric overhead vs bare run: " << fmt(overhead_pct, 1)
            << "%\n";

  session.record("contended_flow_rate",
                 {{"nodes", nodes},
                  {"window_s", static_cast<double>(window / kSec)},
                  {"flows_finished",
                   static_cast<double>(fabric.flows_finished)},
                  {"flows_contended",
                   static_cast<double>(fabric.flows_contended)},
                  {"mb_transferred", fabric.mb_transferred},
                  {"wall_seconds", fab_wall},
                  {"bare_wall_seconds", bare_wall},
                  {"overhead_pct", overhead_pct},
                  {"flows_per_sec", flows_per_sec}});
  return 0;
}
