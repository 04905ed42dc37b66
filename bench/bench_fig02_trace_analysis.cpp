// Figure 2: Alibaba trace analysis — (a) Spearman heat map of the eight
// latency-critical container metrics, (b) CDF of average/maximum CPU and
// memory utilization, (c) heat map of the six batch-task metrics.
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/percentile.hpp"
#include "workload/alibaba.hpp"

int main(int argc, char** argv) {
  using namespace knots;
  bench::Session session(argc, argv, "fig02_trace_analysis");
  // Population sizes follow the paper's trace slice: 11 089 containers and
  // 12 951 batch jobs over 12 h.
  workload::AlibabaTrace lc_trace{Rng(42)};
  workload::AlibabaTrace batch_trace{Rng(43)};
  workload::AlibabaTrace container_trace{Rng(44)};

  const auto lc_cols = lc_trace.lc_metric_columns(11089);
  bench::print_heatmap(
      std::cout, "Fig 2a: Spearman correlation, latency-critical tasks",
      stats::spearman_matrix(workload::lc_metric_labels(), lc_cols));

  const auto batch_cols = batch_trace.batch_metric_columns(12951);
  bench::print_heatmap(
      std::cout, "Fig 2c: Spearman correlation, batch tasks",
      stats::spearman_matrix(workload::batch_metric_labels(), batch_cols));

  std::vector<double> cpu_avg, cpu_max, mem_avg, mem_max;
  for (int i = 0; i < 11089; ++i) {
    const auto c = container_trace.sample_container();
    cpu_avg.push_back(100 * c.cpu_avg);
    cpu_max.push_back(100 * c.cpu_max);
    mem_avg.push_back(100 * c.mem_avg);
    mem_max.push_back(100 * c.mem_max);
  }
  TablePrinter cdf("Fig 2b: CDF of container core/memory utilization %");
  cdf.columns({"CDF", "avg CPU", "max CPU", "avg Mem", "max Mem"});
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    // Appended, not "P" + fmt(...): GCC 12 reports a false -Wrestrict
    // overlap in that operator+ at -O3.
    std::string label = "P";
    label += fmt(p, 0);
    cdf.row(label,
            {percentile(cpu_avg, p), percentile(cpu_max, p),
             percentile(mem_avg, p), percentile(mem_max, p)},
            1);
  }
  cdf.print(std::cout);

  OnlineStats cpu_stats, mem_stats;
  for (double v : cpu_avg) cpu_stats.add(v);
  for (double v : mem_avg) mem_stats.add(v);
  std::cout << "\nMean average CPU utilization: " << fmt(cpu_stats.mean(), 1)
            << "% (paper: ~47%)\nMean average memory utilization: "
            << fmt(mem_stats.mean(), 1) << "% (paper: ~76%)\n";
  session.record("container_means", {{"cpu_avg_pct", cpu_stats.mean()},
                                     {"mem_avg_pct", mem_stats.mean()}});
  return 0;
}
