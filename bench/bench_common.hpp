// Shared helpers for the figure-reproduction benches.
//
// Every bench prints the same rows/series the paper's figure plots, plus an
// ASCII rendering where it aids eyeballing. Absolute values live in
// EXPERIMENTS.md next to the paper's numbers.
//
// Every bench binary also accepts:
//   --json <path>   write a machine-readable result file (see Session)
//   --fast          shrink workloads for CI smoke runs
#pragma once

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/table.hpp"
#include "knots/experiment.hpp"
#include "stats/correlation.hpp"

namespace knots::bench {

/// One benchmark's machine-readable result: a name plus flat numeric
/// metrics (ns_per_op, ticks_per_sec, allocs_per_op, ...).
struct BenchRecord {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;
};

/// The machine and build a result was measured on. Numbers from different
/// hosts are not comparable, so every result file carries one.
struct HostStamp {
  std::string cpu_model = "unknown";
  unsigned cores = 0;
  std::string compiler = "unknown";
  std::string build_type = KNOTS_BUILD_TYPE;
  std::string git_sha = "unknown";  ///< `-dirty` when the tree had edits
};

inline HostStamp host_stamp() {
  HostStamp host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto value = line.find_first_not_of(" \t:", line.find(':'));
    if (value != std::string::npos) host.cpu_model = line.substr(value);
    break;
  }
  host.cores = std::thread::hardware_concurrency();
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#endif
  if (FILE* git = ::popen("git -C '" KNOTS_SOURCE_DIR "' describe --always "
                          "--dirty --abbrev=40 2>/dev/null", "r")) {
    char sha[128] = {};
    if (std::fgets(sha, sizeof sha, git) != nullptr && sha[0] != '\n') {
      host.git_sha = std::string(sha, std::strcspn(sha, "\r\n"));
    }
    ::pclose(git);
  }
  return host;
}

/// Serializes records as the BENCH_perf.json schema:
///   {"suite": ..., "host": {...}, "wall_seconds": ...,
///    "benchmarks": [{"name": ...}]}
inline void write_bench_json(std::ostream& os, const std::string& suite,
                             const HostStamp& host, double wall_seconds,
                             const std::vector<BenchRecord>& records) {
  const auto num = [](double v) {
    std::ostringstream s;
    s.precision(12);
    s << v;
    return s.str();
  };
  const auto str = [](const std::string& v) {
    std::string out = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + '"';
  };
  os << "{\n  \"suite\": " << str(suite) << ",\n  \"host\": {\"cpu_model\": "
     << str(host.cpu_model) << ", \"cores\": " << host.cores
     << ", \"compiler\": " << str(host.compiler)
     << ", \"build_type\": " << str(host.build_type)
     << ", \"git_sha\": " << str(host.git_sha)
     << "},\n  \"wall_seconds\": " << num(wall_seconds)
     << ",\n  \"benchmarks\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << records[i].name
       << '"';
    for (const auto& [key, value] : records[i].metrics) {
      os << ", \"" << key << "\": " << num(value);
    }
    os << '}';
  }
  os << "\n  ]\n}\n";
}

/// Per-binary bench session: parses the shared flags, accumulates
/// BenchRecords, and (when --json was given) writes the result file on
/// destruction — so a bench only needs `Session session(argc, argv, name);`
/// plus optional record() calls for its headline numbers.
class Session {
 public:
  Session(int argc, char** argv, std::string suite)
      : suite_(std::move(suite)), start_(std::chrono::steady_clock::now()) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        json_path_ = argv[++i];
      } else if (std::strcmp(argv[i], "--fast") == 0) {
        fast_ = true;
      }
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// True when --fast was passed: benches should shrink their workloads
  /// (CI smoke mode).
  [[nodiscard]] bool fast() const noexcept { return fast_; }
  [[nodiscard]] bool json_requested() const noexcept {
    return !json_path_.empty();
  }

  void record(std::string name,
              std::vector<std::pair<std::string, double>> metrics) {
    records_.push_back({std::move(name), std::move(metrics)});
  }

  ~Session() {
    if (json_path_.empty()) return;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::ofstream out(json_path_);
    if (!out) {
      std::cerr << "bench: cannot write " << json_path_ << '\n';
      return;
    }
    write_bench_json(out, suite_, host_stamp(), wall, records_);
    std::cout << "wrote " << json_path_ << " (" << records_.size()
              << " benchmarks)\n";
  }

 private:
  std::string suite_;
  std::string json_path_;
  bool fast_ = false;
  std::chrono::steady_clock::time_point start_;
  std::vector<BenchRecord> records_;
};

/// Default arrival window for the cluster experiments: a compressed slice
/// of the paper's 12 h trace replay that keeps each bench run ~1 s.
inline constexpr SimTime kBenchWindow = 300 * kSec;

inline ExperimentConfig bench_config(int mix, sched::SchedulerKind kind) {
  ExperimentConfig cfg = default_experiment(mix, kind);
  cfg.workload.duration = kBenchWindow;
  return cfg;
}

/// Prints a correlation matrix as the Fig 2 heat maps (values in [-1, 1]).
inline void print_heatmap(std::ostream& os, const std::string& title,
                          const stats::CorrelationMatrix& m) {
  TablePrinter table(title);
  std::vector<std::string> header = {""};
  for (const auto& label : m.labels) header.push_back(label);
  table.columns(header);
  for (std::size_t i = 0; i < m.labels.size(); ++i) {
    std::vector<std::string> row = {m.labels[i]};
    for (std::size_t j = 0; j < m.labels.size(); ++j) {
      row.push_back(fmt(m.at(i, j), 2));
    }
    table.row(row);
  }
  table.print(os);
}

/// Prints per-GPU utilization percentile bars (Fig 6 / Fig 8 panels).
inline void print_per_gpu_percentiles(std::ostream& os,
                                      const std::string& title,
                                      const ExperimentReport& report) {
  TablePrinter table(title);
  table.columns({"GPU node", "50%le", "90%le", "99%le", "Max", "p50 bar"});
  for (std::size_t g = 0; g < report.per_gpu.size(); ++g) {
    const auto& u = report.per_gpu[g];
    table.row({std::to_string(g + 1), fmt(u.p50, 1), fmt(u.p90, 1),
               fmt(u.p99, 1), fmt(u.max, 1), ascii_bar(u.p50, 100.0, 25)});
  }
  table.print(os);
}

}  // namespace knots::bench
