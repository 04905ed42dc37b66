// Tests of the benchmark's own code: the layer probes forward every call,
// the composed runs replay the library entry points bit for bit (traced or
// not), the traced attribution adds up, and every metric is well named.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "dlsim/dl_cluster.hpp"
#include "knots/experiment.hpp"
#include "runner/host.hpp"
#include "runner/probes.hpp"
#include "runner/workloads.hpp"
#include "sched/registry.hpp"
#include "serve/serving.hpp"

namespace perfbench {
namespace {

using namespace knots;

// ---- Forwarding: every virtual reaches the wrapped object ----

class RecordingScheduler final : public cluster::Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "recording"; }
  void on_schedule(cluster::SchedulingContext&) override {
    calls.push_back("on_schedule");
  }
  void on_node_down(cluster::SchedulingContext&, NodeId) override {
    calls.push_back("on_node_down");
  }
  void on_node_up(cluster::SchedulingContext&, NodeId) override {
    calls.push_back("on_node_up");
  }
  void on_telemetry_stale(cluster::SchedulingContext&, GpuId) override {
    calls.push_back("on_telemetry_stale");
  }
  [[nodiscard]] bool parks_idle_gpus() const override { return true; }

  std::vector<std::string> calls;
};

TEST(Probes, TimedSchedulerForwardsEveryVirtual) {
  RecordingScheduler inner;
  SpanRecorder spans;
  TickPhase phase;
  TimedScheduler timed(inner, spans, phase);
  cluster::Scheduler& s = timed;
  cluster::SchedulingContext ctx;
  s.on_schedule(ctx);
  s.on_node_down(ctx, NodeId{0});
  s.on_node_up(ctx, NodeId{0});
  s.on_telemetry_stale(ctx, GpuId{0});
  EXPECT_EQ(s.name(), "recording");
  EXPECT_TRUE(s.parks_idle_gpus());  // the base default is false
  EXPECT_EQ(inner.calls,
            (std::vector<std::string>{"on_schedule", "on_node_down",
                                      "on_node_up", "on_telemetry_stale"}));
  EXPECT_EQ(timed.rounds(), 1u);
  EXPECT_EQ(spans.calls(Layer::kSched), 4u);
}

class RecordingObserver final : public cluster::ClusterObserver {
 public:
  void on_place(const cluster::Cluster&, PodId, GpuId, double mb) override {
    calls.push_back("on_place " + std::to_string(mb));
  }
  void on_resize(const cluster::Cluster&, PodId, double mb) override {
    calls.push_back("on_resize " + std::to_string(mb));
  }
  void on_crash(const cluster::Cluster&, PodId) override {
    calls.push_back("on_crash");
  }
  void on_requeue(const cluster::Cluster&, PodId) override {
    calls.push_back("on_requeue");
  }
  void on_evict(const cluster::Cluster&, PodId, NodeId) override {
    calls.push_back("on_evict");
  }
  void on_node_down(const cluster::Cluster&, NodeId) override {
    calls.push_back("on_node_down");
  }
  void on_node_up(const cluster::Cluster&, NodeId) override {
    calls.push_back("on_node_up");
  }
  void on_complete(const cluster::Cluster&, PodId) override {
    calls.push_back("on_complete");
  }
  void on_park(const cluster::Cluster&, GpuId) override {
    calls.push_back("on_park");
  }
  void on_flow_start(const cluster::Cluster&, std::uint64_t flow, int kind,
                     int src, int dst, double mb) override {
    calls.push_back("on_flow_start " + std::to_string(flow) + " " +
                    std::to_string(kind) + " " + std::to_string(src) + " " +
                    std::to_string(dst) + " " + std::to_string(mb));
  }
  void on_flow_finish(const cluster::Cluster&, std::uint64_t flow,
                      bool contended) override {
    calls.push_back("on_flow_finish " + std::to_string(flow) + " " +
                    std::to_string(contended));
  }
  void on_link_down(const cluster::Cluster&, std::size_t link) override {
    calls.push_back("on_link_down " + std::to_string(link));
  }
  void on_link_up(const cluster::Cluster&, std::size_t link) override {
    calls.push_back("on_link_up " + std::to_string(link));
  }
  void on_tick_end(const cluster::Cluster&) override {
    calls.push_back("on_tick_end");
  }

  std::vector<std::string> calls;
};

TEST(Probes, TimedObserverForwardsEveryVirtual) {
  RecordingScheduler scheduler;
  cluster::ClusterConfig cfg;
  cfg.nodes = 1;
  cluster::Cluster cluster(cfg, scheduler);
  RecordingObserver inner;
  SpanRecorder spans;
  TickPhase phase;
  TimedObserver timed(inner, Layer::kDigest, spans, phase);
  cluster::ClusterObserver& o = timed;
  o.on_place(cluster, PodId{1}, GpuId{0}, 2.5);
  o.on_resize(cluster, PodId{1}, 3.5);
  o.on_crash(cluster, PodId{1});
  o.on_requeue(cluster, PodId{1});
  o.on_evict(cluster, PodId{1}, NodeId{0});
  o.on_node_down(cluster, NodeId{0});
  o.on_node_up(cluster, NodeId{0});
  o.on_complete(cluster, PodId{1});
  o.on_park(cluster, GpuId{0});
  o.on_flow_start(cluster, 7, 2, -1, 0, 4.5);
  o.on_flow_finish(cluster, 7, true);
  o.on_link_down(cluster, 3);
  o.on_link_up(cluster, 3);
  o.on_tick_end(cluster);
  EXPECT_EQ(inner.calls,
            (std::vector<std::string>{
                "on_place 2.500000", "on_resize 3.500000", "on_crash",
                "on_requeue", "on_evict", "on_node_down", "on_node_up",
                "on_complete", "on_park", "on_flow_start 7 2 -1 0 4.500000",
                "on_flow_finish 7 1", "on_link_down 3", "on_link_up 3",
                "on_tick_end"}));
  EXPECT_EQ(spans.calls(Layer::kDigest), 14u);
  EXPECT_EQ(timed.places(), 1u);
}

class RecordingDlScheduler final : public dlsim::DlScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "recording-dl"; }
  void schedule(dlsim::DlSchedView&) override {
    calls.push_back("schedule");
    ++crashes_;
    ++migrations_;
    ++preemptions_;
  }
  SimTime serve_query(dlsim::DlSchedView&, const dlsim::DliQuery& q) override {
    calls.push_back("serve_query");
    return q.base_latency + 1;
  }
  void on_node_down(cluster::SchedulingContext&, NodeId) override {
    calls.push_back("on_node_down");
  }
  void on_node_up(cluster::SchedulingContext&, NodeId) override {
    calls.push_back("on_node_up");
  }
  void on_telemetry_stale(cluster::SchedulingContext&, GpuId) override {
    calls.push_back("on_telemetry_stale");
  }
  [[nodiscard]] bool parks_idle_gpus() const override { return true; }

  std::vector<std::string> calls;
};

/// Drives every DlScheduler virtual through `outer` and checks `inner`
/// saw each call and `outer` mirrors its counters.
void expect_dl_forwarding(dlsim::DlScheduler& outer,
                          RecordingDlScheduler& inner) {
  dlsim::DlClusterConfig cfg;
  cfg.nodes = 1;
  cfg.gpus_per_node = 2;
  dlsim::DlEngine engine(cfg, outer, 1);
  dlsim::DliQuery query;
  query.base_latency = 10;
  cluster::SchedulingContext ctx;
  ctx.extension = &engine.view();
  outer.on_schedule(ctx);
  EXPECT_EQ(outer.serve_query(engine.view(), query), 11);
  outer.on_node_down(ctx, NodeId{0});
  outer.on_node_up(ctx, NodeId{0});
  outer.on_telemetry_stale(ctx, GpuId{0});
  EXPECT_EQ(outer.name(), "recording-dl");
  EXPECT_TRUE(outer.parks_idle_gpus());
  EXPECT_EQ(inner.calls,
            (std::vector<std::string>{"schedule", "serve_query",
                                      "on_node_down", "on_node_up",
                                      "on_telemetry_stale"}));
  EXPECT_EQ(outer.crash_restarts(), 1u);
  EXPECT_EQ(outer.migrations(), 1u);
  EXPECT_EQ(outer.preemptions(), 1u);
}

TEST(Probes, TimedDlSchedulerForwardsEveryVirtual) {
  RecordingDlScheduler inner;
  SpanRecorder spans;
  TimedDlScheduler timed(inner, spans);
  expect_dl_forwarding(timed, inner);
  EXPECT_EQ(spans.calls(Layer::kDlSchedule), 4u);
  EXPECT_EQ(spans.calls(Layer::kDlQuery), 1u);
}

TEST(Probes, OccupancySamplerForwardsEveryVirtual) {
  RecordingDlScheduler inner;
  OccupancySampler sampler(inner);
  expect_dl_forwarding(sampler, inner);
  EXPECT_EQ(sampler.median_busy_pct(), 0.0);  // one round, no jobs placed
}

TEST(Probes, SelfTimeExcludesNestedSpans) {
  SpanRecorder spans;
  spans.begin(Layer::kSched, 5);
  spans.begin(Layer::kDigest, 5);
  spans.end();
  spans.begin(Layer::kDigest, 5);
  spans.end();
  spans.end();
  // Nanosecond totals are integers, so the identity is exact.
  EXPECT_DOUBLE_EQ(spans.self_s(Layer::kSched) + spans.inclusive_s(Layer::kDigest),
                   spans.inclusive_s(Layer::kSched));
  EXPECT_EQ(spans.calls(Layer::kDigest), 2u);
  ASSERT_EQ(spans.spans().size(), 3u);
  EXPECT_EQ(spans.spans().back().layer, Layer::kSched);
  EXPECT_EQ(spans.spans().back().sim_time, 5);
}

// ---- Composed runs replay the library entry points ----

double layer(const RunOutcome& out, const std::string& name) {
  for (const auto& [key, value] : out.layers) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "missing layer " << name;
  return 0;
}

/// Self times of the named layers plus residual_s are run_s.
void expect_attribution_adds_up(const RunOutcome& out,
                                const std::vector<std::string>& parts) {
  double sum = 0;
  for (const auto& p : parts) sum += layer(out, p);
  EXPECT_NEAR(sum, layer(out, "trace.run_s"), 1e-6);
  EXPECT_DOUBLE_EQ(layer(out, "trace.run_s"), out.run_s());
}

TEST(ComposedRuns, PodRunReplaysRunExperiment) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const ExperimentConfig cfg = pods_config(seed, {10, 20 * kSec});
    const ExperimentReport ref = run_experiment(cfg);
    for (const bool traced : {false, true}) {
      const RunOutcome out = make_pod_run(cfg, traced)->run();
      EXPECT_TRUE(out.errors.empty()) << out.errors.front();
      EXPECT_EQ(out.run_digest, ref.run_digest) << "traced " << traced;
      EXPECT_DOUBLE_EQ(out.mean_jct_s, ref.mean_jct_s);
      EXPECT_DOUBLE_EQ(out.energy_kj, ref.energy_joules / 1000.0);
      EXPECT_DOUBLE_EQ(out.gpu_util_p50_pct, ref.cluster_wide.p50);
      EXPECT_EQ(out.attempted, ref.pods_total);
      if (traced) {
        expect_attribution_adds_up(
            out, {"cluster.advance_s", "telemetry.scrape_s", "sched.self_s",
                  "telemetry.query_s", "verify.audit_s", "verify.digest_s",
                  "residual_s", "sim.queue_s", "knots.report_s"});
        EXPECT_EQ(layer(out, "cluster.ticks"), static_cast<double>(ref.ticks));
        EXPECT_EQ(layer(out, "sched.rounds"), static_cast<double>(ref.ticks));
        EXPECT_EQ(layer(out, "verify.audits"),
                  static_cast<double>(ref.invariant_checks));
        EXPECT_EQ(layer(out, "sim.events"), static_cast<double>(ref.events));
      }
    }
  }
}

TEST(ComposedRuns, ServeRunReplaysRunServing) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const serve::ServingConfig cfg =
        fleet_serve_config(seed, {1, 60.0, 30 * kSec});
    const serve::ServingReport ref = serve::run_serving(cfg);
    for (const bool traced : {false, true}) {
      const RunOutcome out = make_serve_run(cfg, traced)->run();
      EXPECT_TRUE(out.errors.empty()) << out.errors.front();
      EXPECT_EQ(out.run_digest, ref.experiment.run_digest) << traced;
      EXPECT_EQ(out.serve_digest, ref.serve_digest) << traced;
      EXPECT_EQ(out.requests, ref.offered);
      EXPECT_DOUBLE_EQ(out.mean_jct_s, ref.experiment.mean_jct_s);
      if (traced) {
        expect_attribution_adds_up(
            out, {"cluster.advance_s", "telemetry.scrape_s", "sched.self_s",
                  "telemetry.query_s", "verify.audit_s", "verify.digest_s",
                  "residual_s", "sim.queue_s", "knots.report_s"});
        EXPECT_EQ(layer(out, "serve.offered"),
                  static_cast<double>(ref.offered));
        EXPECT_EQ(layer(out, "serve.shed"), static_cast<double>(ref.shed));
        EXPECT_GT(layer(out, "net.flows"), 0.0);  // image pulls on the fabric
      }
    }
  }
}

TEST(ComposedRuns, DlRunReplaysRunDlSimulation) {
  DlSpec spec = dl_fabric_spec(5);
  spec.cluster.nodes = 4;
  net::AutoFabricOptions options;
  options.intra_node_mb_per_s = spec.cluster.gpu.nvlink_mbps;
  spec.cluster.fabric = net::FabricPlan::auto_derive(4, options);
  spec.workload.dlt_jobs = 40;
  spec.workload.dli_queries = 300;
  spec.workload.window = 2 * kHour;
  const dlsim::DlResult ref = dlsim::run_dl_simulation(
      spec.policy, spec.cluster, spec.workload, spec.seed);
  for (const bool traced : {false, true}) {
    const RunOutcome out = make_dl_run(spec, traced)->run();
    EXPECT_TRUE(out.errors.empty()) << out.errors.front();
    EXPECT_EQ(out.run_digest, ref.run_digest) << traced;
    EXPECT_DOUBLE_EQ(out.mean_jct_s, ref.avg_jct_h * 3600.0);
    EXPECT_EQ(out.attempted, ref.dlt_total + ref.queries.size());
    EXPECT_GT(out.gpu_util_p50_pct, 0.0);
    if (traced) {
      expect_attribution_adds_up(out, {"dl.schedule_s", "dl.query_s",
                                       "dl.engine_s", "knots.report_s"});
      EXPECT_EQ(layer(out, "dl.queries"),
                static_cast<double>(ref.queries.size()));
    }
  }
}

// ---- CPU probe ----

TEST(Host, CpuProbeIsFiniteAndRepeats) {
  const double first = cpu_probe_s();
  const double second = cpu_probe_s();
  EXPECT_GT(first, 0.0);
  EXPECT_TRUE(std::isfinite(first));
  // Host drift moves it by tens of percent, not by a factor of three.
  EXPECT_LT(std::max(first, second) / std::min(first, second), 3.0);
}

// ---- Metric catalogue ----

TEST(Catalogue, NamesUnitsAndDirectionsAreWellFormed) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string_view> seen;
  std::vector<MetricSpec> all = end_to_end_metrics();
  all.insert(all.end(), per_layer_metrics().begin(),
             per_layer_metrics().end());
  for (const MetricSpec& m : all) {
    const std::string name(m.name);
    EXPECT_TRUE(std::regex_match(name, name_re)) << name;
    EXPECT_TRUE(std::regex_match(std::string(m.unit), unit_re)) << name;
    EXPECT_TRUE(m.better == "lower" || m.better == "higher") << name;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << name;
  }
  EXPECT_EQ(end_to_end_metrics().front().name, "setup_s");
  EXPECT_EQ(end_to_end_metrics().front().unit, "s");
}

TEST(Catalogue, TracedRunReportsEveryLayerMetric) {
  const RunOutcome out =
      make_pod_run(pods_config(2, {10, 10 * kSec}), true)->run();
  std::vector<std::string> names;
  for (const auto& [name, value] : out.layers) names.push_back(name);
  std::vector<std::string> want;
  for (const MetricSpec& m : per_layer_metrics()) {
    // The overhead compares two processes; perfbench/run.py computes it.
    if (m.name != "trace.overhead_pct") want.emplace_back(m.name);
  }
  EXPECT_EQ(names, want);
}

}  // namespace
}  // namespace perfbench
