// knots_ctl — command-line front end to the library: run any experiment
// configuration and print (or CSV-export) the report.
//
//   knots_ctl run --mix 1 --scheduler PP --duration 300 [--nodes 10]
//                 [--gpus 1] [--seed 42] [--csv out.csv]
//                 [--crash-node N@T[:D]]          # fault injection
//                 [--trace out.json]              # Chrome about:tracing
//                 [--trace-bin out.trc]           # compact binary trace
//                 [--metrics-out out.json]        # metrics registry dump
//   knots_ctl sweep --mix 1 --duration 300        # all four schedulers
//   knots_ctl serve --qps 120 [--diurnal AMP | --flash-crowd MULT]
//                   [--slo-ms N] [--autoscale on|off] [--duration SECS]
//                   [--scheduler PP] [--nodes N] [--seed N] ...
//                                                  # open-loop serving run
//   knots_ctl dlsim [--mix 1] [--dlt 520] [--dli 1400]       # 4-way compare
//   knots_ctl dlsim --dl gandiva [--nodes 32] [--gpus 8]     # one DL policy
//                   [--duration SECS] [--seed 42]
//                   [--crash-node N@T[:D]] [--trace out.json]
//                   [--trace-bin out.trc] [--metrics-out out.json]
//   knots_ctl list                                 # schedulers & mixes
//
// Unknown or malformed flags exit 2 with a usage message.
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "core/csv.hpp"
#include "core/parse.hpp"
#include "core/table.hpp"
#include "dlsim/dl_report.hpp"
#include "gpu/device_model.hpp"
#include "knots/experiment.hpp"
#include "knots/scenario.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/serving.hpp"
#include "telemetry/timeseries_db.hpp"
#include "workload/app_mix.hpp"

namespace {

using namespace knots;

constexpr const char* kUsage =
    "usage: knots_ctl <command> [--flag value]...\n"
    "  run    --mix N --scheduler NAME --duration SECS [--nodes N] [--gpus N]\n"
    "         [--seed N] [--device-model NAME] [--csv FILE]\n"
    "         [--crash-node N@T[:D]] [--fabric auto|zero]\n"
    "         [--link-down NAME@T[:D]]\n"
    "         [--trace FILE] [--trace-bin FILE] [--metrics-out FILE]\n"
    "  sweep  --mix N --duration SECS [--nodes N] [--gpus N]\n"
    "         [--seed N] [--device-model NAME]\n"
    "  scenario FILE [--csv FILE] [--trace FILE]\n"
    "         [--trace-bin FILE] [--metrics-out FILE]\n"
    "  serve  --qps RATE [--diurnal AMP | --flash-crowd MULT] [--slo-ms N]\n"
    "         [--autoscale on|off] [--duration SECS] [--mix N]\n"
    "         [--scheduler NAME] [--nodes N] [--gpus N] [--seed N]\n"
    "         [--crash-node N@T[:D]] [--trace FILE] [--trace-bin FILE]\n"
    "         [--metrics-out FILE]\n"
    "  dlsim  [--mix N] [--dlt N] [--dli N]           (compare all policies)\n"
    "  dlsim  --dl NAME [--mix N] [--dlt N] [--dli N] [--nodes N] [--gpus N]\n"
    "         [--duration SECS] [--seed N] [--device-model NAME]\n"
    "         [--crash-node N@T[:D]]\n"
    "         [--fabric auto|zero] [--link-down NAME@T[:D]] [--allreduce MB]\n"
    "         [--trace FILE] [--trace-bin FILE] [--metrics-out FILE]\n"
    "  list\n";

int usage_error(const std::string& message) {
  std::cerr << "knots_ctl: " << message << "\n" << kUsage;
  return 2;
}

/// Strict flag parser: every token must be a known --flag followed by a
/// value. Returns std::nullopt (after printing the offending token) on any
/// violation so main can exit 2.
std::optional<std::map<std::string, std::string>> parse_flags(
    int argc, char** argv, int first, const std::set<std::string>& allowed) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      std::cerr << "knots_ctl: expected --flag, got '" << arg << "'\n";
      return std::nullopt;
    }
    const std::string key = arg.substr(2);
    if (!allowed.contains(key)) {
      std::cerr << "knots_ctl: unknown flag '--" << key << "'\n";
      return std::nullopt;
    }
    if (i + 1 >= argc) {
      std::cerr << "knots_ctl: flag '--" << key << "' needs a value\n";
      return std::nullopt;
    }
    if (flags.count(key) != 0) {
      std::cerr << "knots_ctl: duplicate flag '--" << key << "'\n";
      return std::nullopt;
    }
    flags[key] = argv[++i];
  }
  return flags;
}

// Bounds for integer flags, checked before any narrowing or unit scaling.
constexpr long long kIntMax = std::numeric_limits<int>::max();
constexpr long long kAnyMin = std::numeric_limits<long long>::min();
constexpr long long kAnyMax = std::numeric_limits<long long>::max();
/// Largest whole-second value whose microsecond count fits SimTime.
constexpr long long kMaxSeconds = kNever / kSec;

/// True when the window [at, at + down] (whole seconds, both >= 0) fits the
/// simulation clock.
bool fits_clock(long long at, long long down) {
  return at <= kMaxSeconds && down <= kMaxSeconds - at;
}

/// Validated double lookup: missing flag → fallback; malformed or
/// non-finite → nullopt.
std::optional<double> double_flag(
    const std::map<std::string, std::string>& flags, const std::string& key,
    double fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const auto v = parse_double(it->second);
  if (!v.has_value()) {
    std::cerr << "knots_ctl: flag '--" << key
              << "' expects a finite number, got '" << it->second << "'\n";
  }
  return v;
}

/// Validated integer lookup: missing flag → fallback; malformed, or outside
/// [lo, hi] (the range the field can hold) → nullopt.
std::optional<long long> int_flag(
    const std::map<std::string, std::string>& flags, const std::string& key,
    long long fallback, long long lo = kAnyMin, long long hi = kAnyMax) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const auto v = parse_int(it->second);
  if (!v.has_value()) {
    std::cerr << "knots_ctl: flag '--" << key << "' expects an integer, got '"
              << it->second << "'\n";
  } else if (*v < lo || *v > hi) {
    std::cerr << "knots_ctl: flag '--" << key << "' is out of range ("
              << (*v < lo ? "min " : "max ") << (*v < lo ? lo : hi)
              << "), got '" << it->second << "'\n";
    return std::nullopt;
  }
  return v;
}

/// Validated `--mix`: missing flag → fallback; not a Table I app mix →
/// nullopt after a message.
std::optional<int> mix_flag(const std::map<std::string, std::string>& flags,
                            int fallback) {
  const auto mix = int_flag(flags, "mix", fallback);
  if (!mix) return std::nullopt;
  const auto& mixes = workload::all_app_mixes();
  for (const auto& m : mixes) {
    if (m.id == *mix) return m.id;
  }
  std::cerr << "knots_ctl: flag '--mix' expects an app mix (one of:";
  for (const auto& m : mixes) std::cerr << " " << m.id;
  std::cerr << "), got '" << flags.at("mix") << "'\n";
  return std::nullopt;
}

/// Parses `--crash-node N@T[:D]` (node N dies at T seconds, down D seconds;
/// omitted D = forever) into a one-event fault plan. The node must be one of
/// the run's `nodes` — CLI-side pre-check, because FaultPlan's own
/// validation aborts rather than exiting 2. Missing flag → empty plan;
/// malformed spec or a node outside the run → nullopt after a message.
std::optional<fault::FaultPlan> crash_plan_from_flags(
    const std::map<std::string, std::string>& flags, int nodes) {
  fault::FaultPlan plan;
  const auto it = flags.find("crash-node");
  if (it == flags.end()) return plan;
  const std::string& spec = it->second;
  const auto at_pos = spec.find('@');
  if (at_pos != std::string::npos) {
    const auto node = parse_int(spec.substr(0, at_pos));
    const std::string rest = spec.substr(at_pos + 1);
    const auto colon = rest.find(':');
    const auto at = parse_int(rest.substr(0, colon));
    std::optional<long long> down_for = 0;
    if (colon != std::string::npos) down_for = parse_int(rest.substr(colon + 1));
    if (node && at && down_for && *node >= 0 && *at >= 0 &&
        *down_for >= 0 && fits_clock(*at, *down_for)) {
      if (*node >= nodes) {
        std::cerr << "knots_ctl: --crash-node targets node " << *node
                  << " but the run has only " << nodes << " nodes\n";
        return std::nullopt;
      }
      plan.node_crash(NodeId{static_cast<std::int32_t>(*node)}, *at * kSec,
                      *down_for * kSec);
      return plan;
    }
  }
  std::cerr << "knots_ctl: --crash-node expects N@T[:D] (T + D at most "
            << kMaxSeconds << " s), got '" << spec << "'\n";
  return std::nullopt;
}

/// Resolves `--device-model NAME` against the registry. Missing flag →
/// nullopt-free default model; unknown name → nullopt after a message.
std::optional<gpu::DeviceModel> device_model_from_flags(
    const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("device-model");
  if (it == flags.end()) return gpu::default_device_model();
  const auto model = gpu::find_device_model(it->second);
  if (!model.has_value()) {
    std::cerr << "knots_ctl: unknown device model '" << it->second
              << "' (one of:";
    for (const auto& m : gpu::device_models()) std::cerr << " " << m.name;
    std::cerr << ")\n";
    return std::nullopt;
  }
  return model;
}

/// Resolves `--fabric auto|zero` against the final node count; the auto
/// topology's intra-node tier tracks the selected device model's NVLink.
/// Missing flag → empty plan (fabric-free run); unknown mode → nullopt
/// after a message.
std::optional<net::FabricPlan> fabric_plan_from_flags(
    const std::map<std::string, std::string>& flags, int nodes,
    double intra_node_mb_per_s = 0.0) {
  const auto it = flags.find("fabric");
  if (it == flags.end()) return net::FabricPlan{};
  if (it->second == "auto") {
    net::AutoFabricOptions options;
    options.intra_node_mb_per_s = intra_node_mb_per_s;
    return net::FabricPlan::auto_derive(nodes, options);
  }
  if (it->second == "zero") return net::FabricPlan::zero_latency(nodes);
  std::cerr << "knots_ctl: flag '--fabric' expects auto|zero, got '"
            << it->second << "'\n";
  return std::nullopt;
}

/// Parses `--link-down NAME@T[:D]` into `plan`. The named link must exist
/// on the (non-empty) fabric — CLI-side pre-check, because FaultPlan's own
/// validation aborts rather than exiting 2. Missing flag → no-op.
bool add_link_down(const std::map<std::string, std::string>& flags,
                   const net::FabricPlan& fabric, fault::FaultPlan& plan) {
  const auto it = flags.find("link-down");
  if (it == flags.end()) return true;
  const std::string& spec = it->second;
  const auto at_pos = spec.find('@');
  if (at_pos != std::string::npos && at_pos > 0) {
    const std::string link = spec.substr(0, at_pos);
    const std::string rest = spec.substr(at_pos + 1);
    const auto colon = rest.find(':');
    const auto at = parse_int(rest.substr(0, colon));
    std::optional<long long> down_for = 0;
    if (colon != std::string::npos) down_for = parse_int(rest.substr(colon + 1));
    if (at && down_for && *at >= 0 && *down_for >= 0 &&
        fits_clock(*at, *down_for)) {
      if (fabric.empty()) {
        std::cerr << "knots_ctl: --link-down requires --fabric\n";
        return false;
      }
      if (!fabric.has_link(link)) {
        std::cerr << "knots_ctl: --link-down names unknown link '" << link
                  << "'\n";
        return false;
      }
      plan.link_down(link, *at * kSec, *down_for * kSec);
      return true;
    }
  }
  std::cerr << "knots_ctl: --link-down expects NAME@T[:D] (T + D at most "
            << kMaxSeconds << " s), got '" << spec << "'\n";
  return false;
}

std::optional<ExperimentConfig> config_from_flags(
    const std::map<std::string, std::string>& flags) {
  ExperimentConfig::Builder builder;
  // Absent flags keep the defaults the builder starts from.
  const ExperimentConfig defaults = builder.build();
  const auto mix = mix_flag(flags, defaults.mix_id);
  const auto duration = int_flag(flags, "duration",
                                 defaults.workload.duration / kSec, 1,
                                 kMaxSeconds);
  const auto nodes =
      int_flag(flags, "nodes", defaults.cluster.nodes, 1, kIntMax);
  const auto gpus =
      int_flag(flags, "gpus", defaults.cluster.gpus_per_node, 1, kIntMax);
  const auto seed =
      int_flag(flags, "seed", static_cast<long long>(defaults.seed), 0);
  if (!mix || !duration || !nodes || !gpus || !seed) return std::nullopt;
  // Every GPU's telemetry ring is allocated whole when the cluster is built,
  // so a fleet whose rings cannot fit in this host's memory is rejected here
  // instead of dying in the allocator.
  const std::string too_big = memory_bound_error(
      telemetry::TimeSeriesDb::footprint_bytes(
          static_cast<double>(*nodes), static_cast<double>(*gpus),
          defaults.cluster.telemetry_retention),
      "the --nodes x --gpus telemetry rings");
  if (!too_big.empty()) {
    std::cerr << "knots_ctl: " << too_big << "\n";
    return std::nullopt;
  }
  builder.mix(*mix)
      .duration(*duration * kSec)
      .nodes(static_cast<int>(*nodes))
      .gpus_per_node(static_cast<int>(*gpus))
      .seed(static_cast<std::uint64_t>(*seed));

  std::string sched_name = "PP";
  if (flags.count("scheduler")) sched_name = flags.at("scheduler");
  bool known = false;
  for (auto kind : sched::kAllSchedulers) {
    if (sched::to_string(kind) == sched_name) known = true;
  }
  if (!known) {
    std::cerr << "knots_ctl: unknown scheduler '" << sched_name << "'\n";
    return std::nullopt;
  }
  builder.scheduler(sched::scheduler_from_name(sched_name));

  const auto model = device_model_from_flags(flags);
  if (!model) return std::nullopt;
  if (flags.count("device-model") != 0) builder.device_model(model->name);

  const auto fabric = fabric_plan_from_flags(flags, static_cast<int>(*nodes),
                                             model->gpu.nvlink_mbps);
  if (!fabric) return std::nullopt;
  if (!fabric->empty()) builder.fabric(*fabric);

  auto plan = crash_plan_from_flags(flags, static_cast<int>(*nodes));
  if (!plan) return std::nullopt;
  if (!add_link_down(flags, *fabric, *plan)) return std::nullopt;
  if (!plan->events.empty()) builder.faults(*plan);
  ExperimentConfig config = builder.build();
  // The whole pod workload is generated before the first tick, so one whose
  // pods cannot fit in this host's memory is rejected here too.
  const std::string too_long = memory_bound_error(
      workload_footprint_bytes(config), "the --duration workload's pods");
  if (!too_long.empty()) {
    std::cerr << "knots_ctl: " << too_long << "\n";
    return std::nullopt;
  }
  return config;
}

void print_report(const ExperimentReport& r) {
  TablePrinter table("Experiment report: " + r.scheduler + ", app-mix-" +
                     std::to_string(r.mix_id));
  table.columns({"metric", "value"});
  table.row({"pods", std::to_string(r.pods_completed) + "/" +
                         std::to_string(r.pods_total)});
  table.row({"queries", std::to_string(r.queries)});
  table.row({"QoS violations/kilo", fmt(r.violations_per_kilo, 1)});
  table.row({"crashes", std::to_string(r.crashes)});
  table.row({"invariant violations", std::to_string(r.invariant_violations)});
  if (r.node_crashes > 0 || r.pods_evicted > 0) {
    table.row({"node crashes", std::to_string(r.node_crashes)});
    table.row({"pods evicted", std::to_string(r.pods_evicted)});
  }
  if (r.flows_started > 0 || r.link_events > 0) {
    table.row({"fabric flows (contended)",
               std::to_string(r.flows_finished) + "/" +
                   std::to_string(r.flows_started) + " (" +
                   std::to_string(r.flows_contended) + ")"});
    table.row({"fabric MB moved", fmt(r.mb_transferred, 0)});
  }
  table.row({"util p50 %", fmt(r.cluster_wide.p50, 1)});
  table.row({"util p99 %", fmt(r.cluster_wide.p99, 1)});
  table.row({"LC p50 / p99 ms",
             fmt(r.lc_p50_ms, 1) + " / " + fmt(r.lc_p99_ms, 1)});
  table.row({"mean / p99 JCT s",
             fmt(r.mean_jct_s, 1) + " / " + fmt(r.p99_jct_s, 1)});
  table.row({"mean power W", fmt(r.mean_power_watts, 0)});
  table.row({"energy kJ", fmt(r.energy_joules / 1000, 1)});
  for (const auto& t : r.tenants) {
    const std::string who = "tenant " + std::to_string(t.tenant);
    table.row({who + " peak MB / quota",
               fmt(t.peak_provisioned_mb, 0) + " / " +
                   (t.quota.provision_cap_mb > 0
                        ? fmt(t.quota.provision_cap_mb, 0)
                        : std::string("unlimited"))});
    table.row({who + " gpu-s / placed / rejected",
               fmt(t.gpu_seconds, 1) + " / " + std::to_string(t.placements) +
                   " / " + std::to_string(t.rejections)});
  }
  std::ostringstream digest;
  digest << "0x" << std::hex << std::setfill('0') << std::setw(16)
         << r.run_digest;
  table.row({"run digest", digest.str()});
  table.print(std::cout);
}

void export_csv(const ExperimentReport& r, const std::string& path) {
  CsvWriter csv(path, {"gpu", "p50", "p90", "p99", "max", "cov"});
  if (!csv.ok()) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  for (std::size_t g = 0; g < r.per_gpu.size(); ++g) {
    csv.row(std::to_string(g),
            {r.per_gpu[g].p50, r.per_gpu[g].p90, r.per_gpu[g].p99,
             r.per_gpu[g].max, r.per_gpu_cov[g]},
            3);
  }
  std::cout << "wrote " << csv.rows_written() << " rows to " << path << "\n";
}

/// The sinks behind one run's --trace, --trace-bin and --metrics-out
/// flags. `observability` points only at the sinks a flag asks for;
/// write() writes every asked-for file once the run is over.
class RunOutputs {
 public:
  explicit RunOutputs(const std::map<std::string, std::string>& flags)
      : flags_(flags) {
    if (flags.count("trace") != 0 || flags.count("trace-bin") != 0) {
      observability.trace = &trace_;
    }
    if (flags.count("metrics-out") != 0) observability.metrics = &metrics_;
  }
  RunOutputs(const RunOutputs&) = delete;
  RunOutputs& operator=(const RunOutputs&) = delete;

  /// Writes each asked-for file; false when any write failed.
  [[nodiscard]] bool write() const {
    bool ok = write_file("trace", "chrome trace", [this](std::ostream& os) {
      trace_.export_chrome_trace(os);
    });
    ok &= write_file("trace-bin", "binary trace",
                     [this](std::ostream& os) { trace_.export_binary(os); });
    ok &= write_file("metrics-out", "metrics",
                     [this](std::ostream& os) { metrics_.to_json(os); });
    return ok;
  }

  RunObservability observability;

 private:
  /// Writes via `emit` to the path `flag` names, if given; false (with a
  /// message) on I/O error.
  template <typename Emit>
  bool write_file(const char* flag, const char* what, Emit emit) const {
    const auto it = flags_.find(flag);
    if (it == flags_.end()) return true;
    std::ofstream out(it->second, std::ios::binary);
    if (!out) {
      std::cerr << "knots_ctl: cannot write " << what << " to " << it->second
                << "\n";
      return false;
    }
    emit(out);
    std::cout << "wrote " << what << " to " << it->second << "\n";
    return !out.fail();
  }

  const std::map<std::string, std::string>& flags_;
  obs::TraceSink trace_;
  obs::MetricsRegistry metrics_;
};

/// False, after a message, when `config`'s pod workload generates no pod:
/// the run would place nothing and print an empty report.
bool generates_pods(const ExperimentConfig& config) {
  if (workload_pod_count(config) > 0) return true;
  std::cerr << "knots_ctl: --mix " << config.mix_id << " generates no pods in "
            << "--duration " << config.workload.duration / kSec
            << " s at seed " << config.seed << " (raise --duration)\n";
  return false;
}

int cmd_run(const std::map<std::string, std::string>& flags) {
  const auto config = config_from_flags(flags);
  if (!config || !generates_pods(*config)) {
    std::cerr << kUsage;
    return 2;
  }

  RunOutputs outputs(flags);
  const auto report = run_experiment(*config, outputs.observability);
  print_report(report);
  if (flags.count("csv")) export_csv(report, flags.at("csv"));

  return outputs.write() ? 0 : 1;
}

int cmd_scenario(const std::string& path,
                 const std::map<std::string, std::string>& flags) {
  std::string error;
  auto scenario = load_scenario(path, error);
  if (!scenario) {
    std::cerr << "knots_ctl: " << error << "\n" << kUsage;
    return 2;
  }

  RunOutputs outputs(flags);
  std::cout << "scenario " << scenario->name << " ("
            << scenario->config.cluster.nodes << " nodes)\n";
  const auto report = run_experiment(scenario->config, outputs.observability);
  print_report(report);
  if (flags.count("csv")) export_csv(report, flags.at("csv"));

  return outputs.write() ? 0 : 1;
}

int cmd_sweep(const std::map<std::string, std::string>& flags) {
  const auto base = config_from_flags(flags);
  if (!base || !generates_pods(*base)) {
    std::cerr << kUsage;
    return 2;
  }
  const std::vector<sched::SchedulerKind> kinds(sched::kAllSchedulers.begin(),
                                                sched::kAllSchedulers.end());
  SweepGrid grid;
  grid.schedulers = kinds;
  const auto results = run_sweep(*base, grid);
  TablePrinter table("Scheduler sweep, app-mix-" +
                     std::to_string(base->mix_id));
  table.columns({"scheduler", "viol/kilo", "crashes", "evictions",
                 "util p50%", "energy kJ", "mean JCT s"});
  for (const auto& result : results) {
    const auto& r = result.report;
    table.row({r.scheduler, fmt(r.violations_per_kilo, 1),
               std::to_string(r.crashes), std::to_string(r.pods_evicted),
               fmt(r.cluster_wide.p50, 1), fmt(r.energy_joules / 1000, 0),
               fmt(r.mean_jct_s, 1)});
  }
  table.print(std::cout);
  return 0;
}

void print_serving_report(const serve::ServingReport& r,
                          const serve::ServingConfig& cfg) {
  TablePrinter table("Serving report: " + r.experiment.scheduler + ", " +
                     std::string(to_string(cfg.arrivals.shape)) +
                     " arrivals");
  table.columns({"metric", "value"});
  table.row({"offered / admitted", std::to_string(r.offered) + " / " +
                                       std::to_string(r.admitted)});
  table.row({"served (degraded)", std::to_string(r.completed + r.degraded) +
                                      " (" + std::to_string(r.degraded) +
                                      ")"});
  table.row({"shed / expired", std::to_string(r.shed) + " / " +
                                   std::to_string(r.expired)});
  table.row({"SLO violations", std::to_string(r.slo_violations)});
  table.row({"offered / achieved qps",
             fmt(r.offered_qps, 1) + " / " + fmt(r.achieved_qps, 1)});
  table.row({"p50 / p99 / p999 ms", fmt(r.latency.p50_ms, 1) + " / " +
                                        fmt(r.latency.p99_ms, 1) + " / " +
                                        fmt(r.latency.p999_ms, 1)});
  table.row({"batches (mean fill)", std::to_string(r.batches) + " (" +
                                        fmt(r.mean_batch_fill, 2) + ")"});
  table.row({"replicas launched/retired",
             std::to_string(r.replicas_launched) + " / " +
                 std::to_string(r.replicas_retired)});
  table.row({"scale up / down", std::to_string(r.scale_ups) + " / " +
                                    std::to_string(r.scale_downs)});
  for (const auto& s : r.services) {
    table.row({"svc " + s.service + " p99 ms / shed",
               fmt(s.latency.p99_ms, 1) + " / " + std::to_string(s.shed)});
  }
  std::ostringstream serve_digest;
  serve_digest << "0x" << std::hex << std::setfill('0') << std::setw(16)
               << r.serve_digest;
  table.row({"serve digest", serve_digest.str()});
  std::ostringstream run_digest;
  run_digest << "0x" << std::hex << std::setfill('0') << std::setw(16)
             << r.experiment.run_digest;
  table.row({"run digest", run_digest.str()});
  table.print(std::cout);
}

int cmd_serve(const std::map<std::string, std::string>& flags) {
  const auto config = config_from_flags(flags);
  const auto qps = double_flag(flags, "qps", 120.0);
  const auto slo_ms = int_flag(flags, "slo-ms", 1, 1, kNever / kMsec);
  if (!config || !qps || !slo_ms) {
    std::cerr << kUsage;
    return 2;
  }
  if (*qps < 0.0) {
    std::cerr << "knots_ctl: flag '--qps' expects a rate >= 0, got '"
              << flags.at("qps") << "'\n"
              << kUsage;
    return 2;
  }
  if (flags.count("diurnal") != 0 && flags.count("flash-crowd") != 0) {
    std::cerr << "knots_ctl: --diurnal and --flash-crowd are mutually "
                 "exclusive\n"
              << kUsage;
    return 2;
  }

  serve::ArrivalShape shape = serve::ArrivalShape::kPoisson;
  const auto diurnal = double_flag(flags, "diurnal", -1.0);
  const auto flash = double_flag(flags, "flash-crowd", -1.0);
  if (!diurnal || !flash) {
    std::cerr << kUsage;
    return 2;
  }
  serve::ServingConfig cfg =
      serve::default_serving(*qps, shape, config->scheduler);
  cfg.experiment = *config;
  if (flags.count("diurnal") != 0) {
    if (*diurnal < 0.0 || *diurnal > 1.0) {
      std::cerr << "knots_ctl: flag '--diurnal' expects an amplitude in "
                   "[0, 1], got '"
                << flags.at("diurnal") << "'\n"
                << kUsage;
      return 2;
    }
    cfg.arrivals.shape = serve::ArrivalShape::kDiurnal;
    cfg.arrivals.diurnal_amplitude = *diurnal;
  }
  if (flags.count("flash-crowd") != 0) {
    if (*flash < 1.0) {
      std::cerr << "knots_ctl: flag '--flash-crowd' expects a multiplier "
                   ">= 1, got '"
                << flags.at("flash-crowd") << "'\n"
                << kUsage;
      return 2;
    }
    cfg.arrivals.shape = serve::ArrivalShape::kFlashCrowd;
    cfg.arrivals.spike_multiplier = *flash;
  }
  if (flags.count("slo-ms") != 0) {
    for (auto& svc : cfg.services) svc.slo = *slo_ms * kMsec;
  }
  if (flags.count("autoscale") != 0) {
    const std::string& v = flags.at("autoscale");
    if (v != "on" && v != "off") {
      std::cerr << "knots_ctl: flag '--autoscale' expects on|off, got '" << v
                << "'\n"
                << kUsage;
      return 2;
    }
    cfg.autoscale = v == "on";
  }
  // --duration is the request window for serving runs.
  if (flags.count("duration") != 0) cfg.window = config->workload.duration;
  // Every request is generated and queued before the first tick.
  const std::string too_many =
      memory_bound_error(serve::serving_footprint_bytes(cfg),
                         "the --qps x --duration requests");
  if (!too_many.empty()) {
    std::cerr << "knots_ctl: " << too_many << "\n" << kUsage;
    return 2;
  }

  RunOutputs outputs(flags);
  const auto report = serve::run_serving(cfg, outputs.observability);
  print_serving_report(report, cfg);

  return outputs.write() ? 0 : 1;
}

void print_dl_run(const dlsim::DlResult& r) {
  TablePrinter table("DL run: " + r.policy);
  table.columns({"metric", "value"});
  table.row({"jobs", std::to_string(r.dlt_completed) + "/" +
                         std::to_string(r.dlt_total)});
  table.row({"avg / median / p99 JCT h",
             fmt(r.avg_jct_h, 2) + " / " + fmt(r.median_jct_h, 2) + " / " +
                 fmt(r.p99_jct_h, 2)});
  table.row({"queries", std::to_string(r.queries.size())});
  table.row({"DLI violations/hr", fmt(r.violations_per_hour, 1)});
  table.row({"crashes / migr / preempt",
             std::to_string(r.crash_restarts) + " / " +
                 std::to_string(r.migrations) + " / " +
                 std::to_string(r.preemptions)});
  if (r.node_crashes > 0 || r.jobs_evicted > 0) {
    table.row({"node crashes", std::to_string(r.node_crashes)});
    table.row({"jobs evicted", std::to_string(r.jobs_evicted)});
  }
  table.row({"mean power W", fmt(r.mean_power_watts, 0)});
  table.row({"energy kJ", fmt(r.energy_joules / 1000, 1)});
  std::ostringstream digest;
  digest << "0x" << std::hex << std::setfill('0') << std::setw(16)
         << r.run_digest;
  table.row({"run digest", digest.str()});
  table.print(std::cout);
}

int cmd_dlsim(const std::map<std::string, std::string>& flags) {
  dlsim::DlClusterConfig cluster;
  dlsim::DlWorkloadConfig wl;
  const auto mix = mix_flag(flags, wl.mix_id);
  const auto dlt = int_flag(flags, "dlt", wl.dlt_jobs, 1, kIntMax);
  const auto dli = int_flag(flags, "dli", wl.dli_queries, 1, kIntMax);
  const auto nodes = int_flag(flags, "nodes", cluster.nodes, 1, kIntMax);
  const auto gpus = int_flag(flags, "gpus", cluster.gpus_per_node, 1, kIntMax);
  const auto duration =
      int_flag(flags, "duration", wl.window / kSec, 1, kMaxSeconds);
  const auto seed = int_flag(flags, "seed", 42, 0);
  if (!mix || !dlt || !dli || !nodes || !gpus || !duration || !seed) {
    std::cerr << kUsage;
    return 2;
  }
  // An engine indexes GPUs by int and allocates every GPU's device state
  // and the whole workload up front, so a run past either limit is rejected
  // here instead of overflowing or dying in the allocator. The comparison
  // runs one engine per policy at once.
  if (*nodes * *gpus > kIntMax) {
    std::cerr << "knots_ctl: --nodes x --gpus is " << *nodes * *gpus
              << " GPUs, more than the " << kIntMax
              << " GPUs a DL engine indexes\n"
              << kUsage;
    return 2;
  }
  const bool one_policy = flags.count("dl") != 0;
  const double engines =
      one_policy ? 1.0 : static_cast<double>(dlsim::kDlPolicyNames.size());
  const std::string too_big = memory_bound_error(
      engines * dlsim::DlEngine::footprint_bytes(
                    static_cast<double>(*nodes), static_cast<double>(*gpus),
                    static_cast<double>(*dlt), static_cast<double>(*dli)),
      one_policy ? "the DL engine's devices and workload"
                 : "the concurrent DL engines' devices and workloads");
  if (!too_big.empty()) {
    std::cerr << "knots_ctl: " << too_big << "\n" << kUsage;
    return 2;
  }
  wl.mix_id = *mix;
  wl.dlt_jobs = static_cast<int>(*dlt);
  wl.dli_queries = static_cast<int>(*dli);
  wl.window = *duration * kSec;
  cluster.nodes = static_cast<int>(*nodes);
  cluster.gpus_per_node = static_cast<int>(*gpus);

  const auto model = device_model_from_flags(flags);
  if (!model) {
    std::cerr << kUsage;
    return 2;
  }
  cluster.gpu = model->gpu;

  const auto fabric =
      fabric_plan_from_flags(flags, cluster.nodes, model->gpu.nvlink_mbps);
  if (!fabric) {
    std::cerr << kUsage;
    return 2;
  }
  cluster.fabric = *fabric;
  const auto allreduce = double_flag(flags, "allreduce", 0.0);
  if (!allreduce || *allreduce < 0.0) {
    if (allreduce) {
      std::cerr << "knots_ctl: flag '--allreduce' expects MB >= 0, got '"
                << flags.at("allreduce") << "'\n";
    }
    std::cerr << kUsage;
    return 2;
  }
  cluster.allreduce_mb_per_step = *allreduce;

  if (!one_policy) {
    // Classic 4-way comparison (Fig 12); observability flags need --dl.
    const auto results = dlsim::run_all_policies(cluster, wl);
    dlsim::print_dl_report(std::cout, results);
    return 0;
  }

  const std::string policy = flags.at("dl");
  const auto known = dlsim::dl_policy_names();
  if (std::find(known.begin(), known.end(), policy) == known.end()) {
    std::cerr << "knots_ctl: unknown DL policy '" << policy << "' (one of:";
    for (const auto& name : known) std::cerr << " " << name;
    std::cerr << ")\n" << kUsage;
    return 2;
  }

  dlsim::DlRunOptions options;
  auto plan = crash_plan_from_flags(flags, cluster.nodes);
  if (!plan || !add_link_down(flags, *fabric, *plan)) {
    std::cerr << kUsage;
    return 2;
  }
  options.faults = *plan;

  RunOutputs outputs(flags);
  options.trace = outputs.observability.trace;
  options.metrics = outputs.observability.metrics;

  const auto result = dlsim::run_dl_simulation(
      policy, cluster, wl, static_cast<std::uint64_t>(*seed), options);
  print_dl_run(result);

  return outputs.write() ? 0 : 1;
}

int cmd_list() {
  std::cout << "schedulers:";
  for (auto kind : sched::kAllSchedulers) {
    std::cout << " " << sched::to_string(kind);
  }
  std::cout << "\ndl policies:";
  for (const auto& name : dlsim::dl_policy_names()) {
    std::cout << " " << name;
  }
  std::cout << "\ndevice models:";
  for (const auto& m : gpu::device_models()) {
    std::cout << " " << m.name;
  }
  std::cout << "\napp mixes:\n";
  for (const auto& mix : workload::all_app_mixes()) {
    std::cout << "  " << mix.id << ": " << mix.name << " (load "
              << to_string(mix.load) << ", COV " << to_string(mix.cov)
              << ")\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error("missing command");
  const std::string cmd = argv[1];

  static const std::map<std::string, std::set<std::string>> kAllowedFlags = {
      {"run",
       {"mix", "scheduler", "duration", "nodes", "gpus", "seed",
        "device-model", "csv", "crash-node", "fabric", "link-down", "trace",
        "trace-bin", "metrics-out"}},
      {"sweep",
       {"mix", "scheduler", "duration", "nodes", "gpus", "seed",
        "device-model"}},
      {"scenario", {"csv", "trace", "trace-bin", "metrics-out"}},
      {"serve",
       {"mix", "scheduler", "duration", "nodes", "gpus", "seed", "qps",
        "diurnal", "flash-crowd", "slo-ms", "autoscale", "crash-node",
        "trace", "trace-bin", "metrics-out"}},
      {"dlsim",
       {"mix", "dlt", "dli", "dl", "nodes", "gpus", "duration", "seed",
        "device-model", "crash-node", "fabric", "link-down", "allreduce",
        "trace", "trace-bin", "metrics-out"}},
      {"list", {}},
  };
  const auto allowed = kAllowedFlags.find(cmd);
  if (allowed == kAllowedFlags.end()) {
    return usage_error("unknown command: " + cmd);
  }
  if (cmd == "scenario") {
    // One positional argument (the scenario file) before the flags.
    if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
      return usage_error("scenario needs a file argument");
    }
    const auto flags = parse_flags(argc, argv, 3, allowed->second);
    if (!flags) {
      std::cerr << kUsage;
      return 2;
    }
    return cmd_scenario(argv[2], *flags);
  }
  const auto flags = parse_flags(argc, argv, 2, allowed->second);
  if (!flags) {
    std::cerr << kUsage;
    return 2;
  }
  if (cmd == "run") return cmd_run(*flags);
  if (cmd == "sweep") return cmd_sweep(*flags);
  if (cmd == "serve") return cmd_serve(*flags);
  if (cmd == "dlsim") return cmd_dlsim(*flags);
  return cmd_list();
}
