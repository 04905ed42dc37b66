// Figure 11b: pairwise coefficient of variation of SM load across the ten
// GPUs under CBP+PP on the high-load mix — low values (< ~0.2) demonstrate
// load balancing compared with the 0.1–0.7 COV of the agnostic baseline.
//
// The pairs are read from the run's metrics collector after the run: only
// this figure reads them, and an n × n matrix on every report would grow
// quadratically with the fleet.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "knots/kube_knots.hpp"

int main(int argc, char** argv) {
  using namespace knots;
  bench::Session session(argc, argv, "fig11b_load_balance");
  KubeKnots knots(
      bench::bench_config(1, sched::SchedulerKind::kPeakPrediction));
  knots.submit_mix_workload();
  (void)knots.run();
  const auto& metrics = knots.cluster().metrics();
  const std::size_t gpus = metrics.gpu_count();

  TablePrinter table(
      "Fig 11b: pairwise COV of SM load, CBP+PP, app-mix-1 (upper triangle)");
  std::vector<std::string> header = {"GPU"};
  for (std::size_t j = 0; j < gpus; ++j) {
    header.push_back(std::to_string(j + 1));
  }
  table.columns(header);
  double max_cov = 0;
  for (std::size_t i = 0; i < gpus; ++i) {
    std::vector<std::string> row = {std::to_string(i + 1)};
    for (std::size_t j = 0; j < gpus; ++j) {
      if (j <= i) {
        row.push_back("-");
      } else {
        const double c = metrics.pairwise_load_cov(i, j);
        max_cov = std::max(max_cov, c);
        row.push_back(fmt(c, 2));
      }
    }
    table.row(row);
  }
  table.print(std::cout);
  std::cout << "\nMax pairwise COV under CBP+PP: " << fmt(max_cov, 2)
            << " (paper: 0 to 0.2, vs 0.1-0.7 for the agnostic baseline in "
               "Fig 7a)\n";
  session.record("pairwise_cov", {{"max", max_cov}});
  return 0;
}
