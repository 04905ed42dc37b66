// knots_bench: runs one benchmark simulation and prints one JSON line.
//
//   knots_bench --workload pods-1k --seed 7 [--setups 3]
//       untraced: set up `--setups` times (timing each, keeping the last),
//       then run and report; raw host times and the same scaled to the
//       reference speed of the CPU probe (host.hpp)
//   knots_bench --workload pods-1k --seed 7 --traced [--spans FILE]
//       traced: the same run through the layer probes; writes the spans
//   knots_bench --host        the host and build stamp
//   knots_bench --catalogue   every metric with its unit and direction
//
// perfbench/run.py drives this binary; see perfbench/README.md.
#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/host.hpp"
#include "runner/workloads.hpp"

namespace {

using namespace perfbench;

constexpr const char* kUsage =
    "usage: knots_bench --workload NAME --seed N [--setups K] "
    "[--traced [--spans FILE]]\n"
    "       knots_bench --host | --catalogue\n";

std::string host_json() {
  const HostStamp h = host_stamp();
  JsonObject o;
  o.field("cpu_model", h.cpu_model)
      .field("cores", static_cast<std::uint64_t>(h.cores))
      .field("compiler", h.compiler)
      .field("build_type", h.build_type)
      .field("knots_trace", h.knots_trace)
      .field("optimised", h.optimised);
  return o.str();
}

std::string catalogue_json() {
  const auto list = [](const std::vector<MetricSpec>& metrics) {
    std::string out = "[";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      JsonObject o;
      o.field("name", metrics[i].name)
          .field("unit", metrics[i].unit)
          .field("better", metrics[i].better);
      out += (i == 0 ? "" : ",") + o.str();
    }
    return out + "]";
  };
  JsonObject o;
  o.raw("end_to_end", list(end_to_end_metrics()))
      .raw("per_layer", list(per_layer_metrics()));
  return o.str();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

int run_workload(Workload workload, std::uint64_t seed, int setups,
                 bool traced, const std::string& spans_path) {
  // Set up `setups` times and keep the last: set-up is a few percent of a
  // run, so one sample per process would leave its median noisy. The CPU
  // probe brackets the set-ups and the run; host times are also reported
  // scaled to the reference speed by the mean of the two probes.
  const double probe_before = cpu_probe_s();
  std::vector<double> setup_s;
  std::unique_ptr<ComposedRun> run;
  for (int i = 0; i < setups; ++i) {
    run.reset();  // one substrate in memory at a time
    run = make_run(workload, seed, traced);
    setup_s.push_back(run->outcome().setup_s());
  }
  const RunOutcome out = run->run();
  const double probe_after = cpu_probe_s();
  const double rss_mb = peak_rss_mb();

  const double scale = 2 * kProbeReferenceS / (probe_before + probe_after);
  std::vector<double> setup_ref_s;
  for (const double s : setup_s) setup_ref_s.push_back(s * scale);

  std::vector<std::string> errors = out.errors;
  if (traced && !spans_path.empty()) {
    std::ofstream file(spans_path);
    run->spans()->write_csv(file);
    file.close();
    if (!file) errors.push_back("cannot write spans to " + spans_path);
  }

  JsonObject o;
  o.field("workload", workload_name(workload))
      .field("seed", seed)
      .field("traced", traced)
      .field("probe_s", std::vector<double>{probe_before, probe_after})
      .field("setup_s", setup_s)
      .field("setup_ref_s", setup_ref_s)
      .field("generate_s", out.generate_s)
      .field("construct_s", out.construct_s)
      .field("prime_s", out.prime_s)
      .field("run_s", out.run_s())
      .field("run_ref_s", out.run_s() * scale)
      .field("peak_rss_mb", rss_mb)
      .field("mean_jct_s", out.mean_jct_s)
      .field("energy_kj", out.energy_kj)
      .field("gpu_util_p50_pct", out.gpu_util_p50_pct)
      .field("slo_miss_pct", out.slo_miss_pct)
      .field("run_digest", hex(out.run_digest))
      .field("serve_digest", hex(out.serve_digest))
      .field("attempted", out.attempted)
      .field("failed", out.failed)
      .field("node_ticks", out.node_ticks)
      .field("job_steps", out.job_steps)
      .field("requests", out.requests)
      .field("errors", errors);
  if (traced) {
    JsonObject layers;
    for (const auto& [name, value] : out.layers) layers.field(name, value);
    o.raw("layers", layers.str());
  }
  std::cout << o.str() << '\n';
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_arg;
  std::string spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  int setups = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--host") {
      std::cout << host_json() << '\n';
      return 0;
    }
    if (arg == "--catalogue") {
      std::cout << catalogue_json() << '\n';
      return 0;
    }
    if (arg == "--traced") {
      traced = true;
    } else if (arg == "--workload" && has_value) {
      workload_arg = argv[++i];
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if ((arg == "--seed" || arg == "--setups") && has_value) {
      const std::string value = argv[++i];
      std::uint64_t v = 0;
      const auto [end, ec] =
          std::from_chars(value.data(), value.data() + value.size(), v);
      if (ec != std::errc{} || end != value.data() + value.size()) {
        std::cerr << "knots_bench: " << arg << " expects an integer\n"
                  << kUsage;
        return 2;
      }
      if (arg == "--seed") {
        seed = v;
        have_seed = true;
      } else {
        if (v < 1 || v > 100) {
          std::cerr << "knots_bench: --setups expects 1..100\n" << kUsage;
          return 2;
        }
        setups = static_cast<int>(v);
      }
    } else {
      std::cerr << "knots_bench: unknown or incomplete argument '" << arg
                << "'\n"
                << kUsage;
      return 2;
    }
  }
  const auto workload = workload_from_name(workload_arg);
  if (!workload || !have_seed) {
    std::cerr << kUsage;
    return 2;
  }
  if (!host_stamp().optimised) {
    std::cerr << "knots_bench: refusing to time an unoptimised (Debug) "
                 "build\n";
    return 3;
  }
  if (traced && setups != 1) {
    std::cerr << "knots_bench: --setups applies to untraced runs only\n";
    return 2;
  }
  return run_workload(*workload, seed, setups, traced, spans_path);
}
