#include "knots/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "core/parse.hpp"
#include "gpu/device_model.hpp"
#include "sched/cbp.hpp"
#include "telemetry/timeseries_db.hpp"
#include "workload/app_mix.hpp"
#include "workload/load_generator.hpp"

namespace knots {

namespace {

/// One whitespace-tokenized, comment-stripped scenario line.
struct Line {
  int number = 0;
  std::vector<std::string> tokens;
};

std::vector<Line> tokenize(std::istream& in) {
  std::vector<Line> lines;
  std::string raw;
  int number = 0;
  while (std::getline(in, raw)) {
    ++number;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream words(raw);
    Line line;
    line.number = number;
    std::string word;
    while (words >> word) line.tokens.push_back(word);
    if (!line.tokens.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

/// parse_int for fields stored as int: values outside int are rejected
/// before the cast could wrap them.
std::optional<int> to_int32(const std::string& s) {
  const auto v = parse_int(s);
  if (!v.has_value() || *v < std::numeric_limits<int>::min() ||
      *v > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(*v);
}

/// Largest whole-second time whose microsecond count fits SimTime.
constexpr long long kMaxSeconds = kNever / kSec;

/// Seconds with an optional "s" suffix ("30", "30s") -> SimTime; negative
/// values and values past kMaxSeconds are rejected.
std::optional<SimTime> to_time(std::string s) {
  if (!s.empty() && s.back() == 's') s.pop_back();
  const auto v = parse_int(s);
  if (!v.has_value() || *v < 0 || *v > kMaxSeconds) return std::nullopt;
  return *v * kSec;
}

/// Suffix for diagnostics on int-typed fields.
const std::string kIntBound =
    " (at most " + std::to_string(std::numeric_limits<int>::max()) + ")";
/// Suffix for diagnostics on time fields.
const std::string kTimeBound =
    " (whole seconds, at most " + std::to_string(kMaxSeconds) + "s)";

/// Splits "key=value"; returns false when `token` has no '='.
bool split_kv(const std::string& token, std::string& key, std::string& value) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

/// Collects the state of a parse in progress; finalize() builds the config.
struct ScenarioBuilder {
  ScenarioSpec spec;
  ExperimentConfig::Builder builder;
  std::vector<cluster::NodeClass> classes;
  std::vector<int> class_lines;  ///< line number of each class
  std::vector<cluster::TenantQuotaSpec> quotas;
  std::vector<int> quota_lines;  ///< line number of each tenant
  fault::FaultPlan faults;
  std::vector<int> fault_lines;  ///< line number of each fault event
  int gpus_per_node = 1;
  /// Line of the last duration, mix or load_scale directive (0 if none).
  int workload_line = 0;
  bool want_auto_fabric = false;
  bool have_fault = false;
};

std::string err(int line, const std::string& why) {
  return "line " + std::to_string(line) + ": " + why;
}

bool handle_nodeclass(ScenarioBuilder& b, const Line& line,
                      std::string& error) {
  // nodeclass <name> <device-model> <count> [gpus=N] [preemptible
  // notice=TIME]
  if (line.tokens.size() < 4) {
    error = err(line.number,
                "nodeclass expects: nodeclass <name> <device-model> <count> "
                "[gpus=N] [preemptible notice=TIME]");
    return false;
  }
  cluster::NodeClass nc;
  nc.device_model = line.tokens[2];
  if (!gpu::find_device_model(nc.device_model).has_value()) {
    error = err(line.number,
                "unknown device model '" + nc.device_model + "'");
    return false;
  }
  const auto count = to_int32(line.tokens[3]);
  if (!count.has_value() || *count < 1) {
    error = err(line.number,
                "nodeclass count must be a positive integer" + kIntBound);
    return false;
  }
  nc.count = *count;
  bool preemptible = false;
  SimTime notice = -1;
  for (std::size_t i = 4; i < line.tokens.size(); ++i) {
    const std::string& tok = line.tokens[i];
    if (tok == "preemptible") {
      preemptible = true;
      continue;
    }
    std::string key;
    std::string value;
    if (split_kv(tok, key, value)) {
      if (key == "notice") {
        const auto t = to_time(value);
        if (!t.has_value()) {
          error =
              err(line.number, "bad notice time '" + value + "'" + kTimeBound);
          return false;
        }
        notice = *t;
        continue;
      }
      if (key == "gpus") {
        const auto g = to_int32(value);
        if (!g.has_value() || *g < 1) {
          error = err(line.number,
                      "nodeclass gpus must be a positive integer" + kIntBound);
          return false;
        }
        nc.gpus_per_node = *g;
        continue;
      }
    }
    error = err(line.number, "unknown nodeclass token '" + tok + "'");
    return false;
  }
  if (preemptible && notice <= 0) {
    error = err(line.number,
                "preemptible node class requires notice=TIME > 0 (spot "
                "capacity without an eviction notice is undefined)");
    return false;
  }
  if (!preemptible && notice >= 0) {
    error = err(line.number, "notice= only applies to preemptible classes");
    return false;
  }
  nc.preemptible = preemptible;
  nc.spot_notice = preemptible ? notice : 0;
  b.classes.push_back(std::move(nc));
  b.class_lines.push_back(line.number);
  return true;
}

bool handle_tenant(ScenarioBuilder& b, const Line& line, std::string& error) {
  // tenant <id> [quota_mb=X] [quota_gpu_s=Y]  (at least one cap)
  if (line.tokens.size() < 3) {
    error = err(line.number,
                "tenant expects: tenant <id> [quota_mb=X] [quota_gpu_s=Y]");
    return false;
  }
  const auto id = to_int32(line.tokens[1]);
  if (!id.has_value() || *id < 1) {
    error = err(line.number, "tenant id must be a positive integer" + kIntBound);
    return false;
  }
  cluster::TenantQuotaSpec quota;
  quota.tenant = *id;
  for (const auto& q : b.quotas) {
    if (q.tenant == quota.tenant) {
      error = err(line.number,
                  "tenant " + std::to_string(quota.tenant) +
                      " declared twice");
      return false;
    }
  }
  for (std::size_t i = 2; i < line.tokens.size(); ++i) {
    std::string key;
    std::string value;
    if (split_kv(line.tokens[i], key, value)) {
      const auto v = parse_double(value);
      if (v.has_value() && *v > 0 && key == "quota_mb") {
        quota.provision_cap_mb = *v;
        continue;
      }
      if (v.has_value() && *v > 0 && key == "quota_gpu_s") {
        quota.gpu_seconds_cap = *v;
        continue;
      }
    }
    error = err(line.number,
                "bad tenant token '" + line.tokens[i] +
                    "' (want quota_mb=X or quota_gpu_s=Y, positive)");
    return false;
  }
  b.quotas.push_back(quota);
  b.quota_lines.push_back(line.number);
  return true;
}

bool handle_fault(ScenarioBuilder& b, const Line& line, std::string& error) {
  // fault spot_reclaim|node_crash node=N at=T [duration=D]
  if (line.tokens.size() < 4) {
    error = err(line.number,
                "fault expects: fault spot_reclaim|node_crash node=N at=T "
                "[duration=D]");
    return false;
  }
  const std::string& kind = line.tokens[1];
  if (kind != "spot_reclaim" && kind != "node_crash") {
    error = err(line.number, "unknown fault kind '" + kind + "'");
    return false;
  }
  int node = -1;
  SimTime at = -1;
  SimTime duration = 0;
  for (std::size_t i = 2; i < line.tokens.size(); ++i) {
    std::string key;
    std::string value;
    if (!split_kv(line.tokens[i], key, value)) {
      error = err(line.number, "bad fault token '" + line.tokens[i] + "'");
      return false;
    }
    if (key == "node") {
      const auto n = to_int32(value);
      if (!n.has_value() || *n < 0) {
        error = err(line.number, "fault node must be >= 0" + kIntBound);
        return false;
      }
      node = *n;
    } else if (key == "at" || key == "duration") {
      const auto t = to_time(value);
      if (!t.has_value()) {
        error =
            err(line.number, "bad fault time '" + value + "'" + kTimeBound);
        return false;
      }
      (key == "at" ? at : duration) = *t;
    } else {
      error = err(line.number, "unknown fault key '" + key + "'");
      return false;
    }
  }
  if (node < 0 || at < 0) {
    error = err(line.number, "fault needs node= and at=");
    return false;
  }
  if (duration > kNever - at) {
    error = err(line.number, "fault at= plus duration= overflows the clock");
    return false;
  }
  const NodeId target{node};
  if (kind == "spot_reclaim") {
    b.faults.spot_reclaim(target, at, duration);
  } else {
    b.faults.node_crash(target, at, duration);
  }
  b.fault_lines.push_back(line.number);
  b.have_fault = true;
  return true;
}

/// Rejects, at its line, a tenant whose quota_mb none of the pods the
/// workload assigns it can fit. No scheduler provisions a pod below
/// min(sched::kMinProvisionMb, its request): CBP and PP give an unprofiled
/// image its request and never resize below their floor, Res-Ag provisions
/// the request and Uniform the request capped by the device. A cap under
/// that for every one of the tenant's pods admits none of them, and the run
/// would only spin through its window rejecting them.
bool check_tenant_caps(const ScenarioBuilder& b, std::string& error) {
  const ExperimentConfig& config = b.spec.config;
  if (config.workload.tenants.empty()) return true;
  std::map<int, double> smallest_request;
  for (const workload::PodSpec& pod : generate_mix_workload(config)) {
    const auto [it, fresh] =
        smallest_request.try_emplace(pod.tenant, pod.requested_mb);
    if (!fresh) it->second = std::min(it->second, pod.requested_mb);
  }
  for (std::size_t i = 0; i < b.quotas.size(); ++i) {
    const cluster::TenantQuotaSpec& quota = b.quotas[i];
    const auto it = smallest_request.find(quota.tenant);
    if (quota.provision_cap_mb <= 0 || it == smallest_request.end()) continue;
    const double least = std::min(sched::kMinProvisionMb, it->second);
    if (quota.provision_cap_mb < least) {
      std::ostringstream why;
      why << "tenant " << quota.tenant << " quota_mb "
          << quota.provision_cap_mb
          << " fits none of its pods (no scheduler provisions one below "
          << least << " MB)";
      error = err(b.quota_lines[i], why.str());
      return false;
    }
  }
  return true;
}

/// Semantic validation that must not abort: everything FaultPlan::validate /
/// the Cluster constructor would KNOTS_CHECK is pre-checked here so the CLI
/// can exit 2 with a message instead.
bool finalize(ScenarioBuilder& b, std::string& error) {
  if (b.classes.empty()) {
    error = "scenario declares no node classes (need at least one nodeclass)";
    return false;
  }
  long long total_nodes = 0;
  double total_memory_mb = 0;
  for (const auto& nc : b.classes) {
    total_nodes += nc.count;
    const auto model = gpu::find_device_model(nc.device_model);
    const int gpus = nc.gpus_per_node > 0 ? nc.gpus_per_node : b.gpus_per_node;
    total_memory_mb += static_cast<double>(nc.count) * gpus *
                       model->gpu.memory_mb;
  }
  if (total_nodes > std::numeric_limits<int>::max()) {
    error = "scenario declares " + std::to_string(total_nodes) +
            " nodes in total" + kIntBound;
    return false;
  }
  // Every GPU's telemetry ring is allocated whole when the cluster is built:
  // a fleet whose rings cannot fit in this host's memory is rejected at the
  // class that tips it over instead of dying in the allocator.
  const ExperimentConfig built = b.builder.build();
  const cluster::ClusterConfig& base = built.cluster;
  double telemetry_bytes = 0;
  for (std::size_t i = 0; i < b.classes.size(); ++i) {
    const auto& nc = b.classes[i];
    const int gpus = nc.gpus_per_node > 0 ? nc.gpus_per_node : b.gpus_per_node;
    telemetry_bytes += telemetry::TimeSeriesDb::footprint_bytes(
        nc.count, gpus, base.telemetry_retention);
    const std::string why =
        memory_bound_error(telemetry_bytes, "the fleet's telemetry rings");
    if (!why.empty()) {
      error = err(b.class_lines[i], why);
      return false;
    }
  }
  // The whole pod workload is generated before the first tick: a load that
  // leaves a stream no whole-microsecond gap to draw with, a duration or
  // load whose pods cannot fit in this host's memory, or one that draws no
  // pod at all, is rejected at the workload directive that came last.
  const auto at_workload_line = [&b](const std::string& why) {
    return b.workload_line > 0 ? err(b.workload_line, why) : why;
  };
  const workload::StreamGaps gaps = workload::mean_interarrivals(
      workload::app_mix(built.mix_id), built.workload);
  if (gaps.batch == 0 || gaps.lc == 0) {
    error = at_workload_line(
        "load_scale leaves a mean inter-arrival gap under 1 us or past what "
        "a time holds");
    return false;
  }
  const std::string too_long = memory_bound_error(
      workload_footprint_bytes(built), "the workload's pods");
  if (!too_long.empty()) {
    error = at_workload_line(too_long);
    return false;
  }
  if (workload_pod_count(built) == 0) {
    error = at_workload_line(
        "the workload generates no pods (raise duration or load_scale)");
    return false;
  }
  // The class hosting node `n`: classes expand in file order.
  const auto class_of = [&b](int n) -> const cluster::NodeClass& {
    for (const auto& nc : b.classes) {
      if (n < nc.count) return nc;
      n -= nc.count;
    }
    return b.classes.back();  // unreachable for n < total_nodes
  };
  for (std::size_t i = 0; i < b.quotas.size(); ++i) {
    const auto& quota = b.quotas[i];
    if (quota.provision_cap_mb > total_memory_mb) {
      error = err(b.quota_lines[i],
                  "tenant " + std::to_string(quota.tenant) + " quota_mb " +
                      std::to_string(
                          static_cast<long long>(quota.provision_cap_mb)) +
                      " exceeds total cluster memory " +
                      std::to_string(static_cast<long long>(total_memory_mb)) +
                      " MB");
      return false;
    }
  }
  for (std::size_t i = 0; i < b.faults.events.size(); ++i) {
    const auto& ev = b.faults.events[i];
    const int line = b.fault_lines[i];
    if (ev.node.value >= 0 && ev.node.value >= total_nodes) {
      error = err(line, "fault targets node " + std::to_string(ev.node.value) +
                            " but the scenario has only " +
                            std::to_string(total_nodes) + " nodes");
      return false;
    }
    if (ev.kind != fault::FaultKind::kSpotReclaim) continue;
    const cluster::NodeClass& host = class_of(ev.node.value);
    if (!host.preemptible) {
      error = err(line, "spot_reclaim targets node " +
                            std::to_string(ev.node.value) +
                            " which is not in a preemptible node class");
      return false;
    }
    // The reclaim lands one notice after at=, and recovers duration= later.
    if (host.spot_notice > kNever - ev.at - ev.duration) {
      error = err(line, "spot_reclaim of node " +
                            std::to_string(ev.node.value) +
                            " plus its class notice overflows the clock");
      return false;
    }
  }

  b.builder.gpus_per_node(b.gpus_per_node);
  for (auto& nc : b.classes) b.builder.node_class(std::move(nc));
  for (const auto& quota : b.quotas) b.builder.tenant_quota(quota);
  if (b.want_auto_fabric) b.builder.auto_fabric();
  if (b.have_fault) b.builder.faults(std::move(b.faults));
  b.spec.config = b.builder.build();
  return check_tenant_caps(b, error);
}

}  // namespace

std::optional<ScenarioSpec> parse_scenario(std::istream& in,
                                           std::string& error) {
  ScenarioBuilder b;
  std::vector<int> workload_tenants;
  for (const Line& line : tokenize(in)) {
    const std::string& directive = line.tokens.front();
    const bool unary = line.tokens.size() == 2;
    if (directive == "name" && unary) {
      b.spec.name = line.tokens[1];
    } else if (directive == "scheduler" && unary) {
      bool known = false;
      for (auto kind : sched::kAllSchedulers) {
        if (sched::to_string(kind) == line.tokens[1]) known = true;
      }
      if (!known) {
        error = err(line.number,
                    "unknown scheduler '" + line.tokens[1] + "'");
        return std::nullopt;
      }
      b.builder.scheduler(sched::scheduler_from_name(line.tokens[1]));
    } else if (directive == "seed" && unary) {
      const auto seed = parse_int(line.tokens[1]);
      if (!seed.has_value() || *seed < 0) {
        error = err(line.number, "seed must be a non-negative integer");
        return std::nullopt;
      }
      b.builder.seed(static_cast<std::uint64_t>(*seed));
    } else if (directive == "duration" && unary) {
      const auto t = to_time(line.tokens[1]);
      if (!t.has_value() || *t <= 0) {
        error = err(line.number, "duration must be a positive time" +
                                     kTimeBound);
        return std::nullopt;
      }
      b.builder.duration(*t);
      b.workload_line = line.number;
    } else if (directive == "mix" && unary) {
      const auto mix = to_int32(line.tokens[1]);
      bool known = false;
      if (mix.has_value()) {
        for (const auto& m : workload::all_app_mixes()) {
          if (m.id == *mix) known = true;
        }
      }
      if (!known) {
        error = err(line.number, "unknown app mix '" + line.tokens[1] + "'");
        return std::nullopt;
      }
      b.builder.mix(*mix);
      b.workload_line = line.number;
    } else if (directive == "load_scale" && unary) {
      const auto scale = parse_double(line.tokens[1]);
      if (!scale.has_value() || *scale <= 0) {
        error = err(line.number, "load_scale must be a positive number");
        return std::nullopt;
      }
      b.builder.load_scale(*scale);
      b.workload_line = line.number;
    } else if (directive == "gpus_per_node" && unary) {
      const auto gpus = to_int32(line.tokens[1]);
      if (!gpus.has_value() || *gpus < 1) {
        error = err(line.number,
                    "gpus_per_node must be a positive integer" + kIntBound);
        return std::nullopt;
      }
      b.gpus_per_node = *gpus;
    } else if (directive == "nodeclass") {
      if (!handle_nodeclass(b, line, error)) return std::nullopt;
    } else if (directive == "tenant") {
      if (!handle_tenant(b, line, error)) return std::nullopt;
    } else if (directive == "workload_tenants" && unary) {
      std::istringstream ids(line.tokens[1]);
      std::string id;
      workload_tenants.clear();
      bool ok = true;
      while (std::getline(ids, id, ',')) {
        const auto v = to_int32(id);
        if (!v.has_value() || *v < 1) {
          ok = false;
          break;
        }
        workload_tenants.push_back(*v);
      }
      if (!ok || workload_tenants.empty()) {
        error = err(line.number,
                    "workload_tenants expects a comma-separated list of "
                    "positive tenant ids");
        return std::nullopt;
      }
    } else if (directive == "fabric" && unary) {
      if (line.tokens[1] == "auto") {
        b.want_auto_fabric = true;
      } else if (line.tokens[1] != "none") {
        error = err(line.number, "fabric expects auto|none");
        return std::nullopt;
      }
    } else if (directive == "power_cap_watts" && unary) {
      const auto watts = parse_double(line.tokens[1]);
      if (!watts.has_value() || *watts <= 0) {
        error = err(line.number, "power_cap_watts must be a positive number");
        return std::nullopt;
      }
      b.builder.power_cap_watts(*watts);
    } else if (directive == "image_mb" && unary) {
      const auto mb = parse_double(line.tokens[1]);
      if (!mb.has_value() || *mb < 0) {
        error = err(line.number, "image_mb must be a number >= 0");
        return std::nullopt;
      }
      b.builder.image_mb(*mb);
    } else if (directive == "fault") {
      if (!handle_fault(b, line, error)) return std::nullopt;
    } else {
      error = err(line.number,
                  "unknown or malformed directive '" + directive + "'");
      return std::nullopt;
    }
  }
  if (!workload_tenants.empty()) {
    b.builder.workload_tenants(std::move(workload_tenants));
  }
  if (!finalize(b, error)) return std::nullopt;
  return std::move(b.spec);
}

std::optional<ScenarioSpec> load_scenario(const std::string& path,
                                          std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read scenario file '" + path + "'";
    return std::nullopt;
  }
  return parse_scenario(in, error);
}

}  // namespace knots
