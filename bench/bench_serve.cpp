// Serving load curves: tail latency (p50/p99/p999) and goodput vs offered
// load for the three synthetic arrival shapes (Poisson, diurnal,
// flash-crowd), plus the sustained-throughput figure the CI bench gate
// reads. Committed baseline lives in BENCH_serve.json.
//
//   --fast   trims the load sweep to the CI smoke points (the sustained
//            point always runs)
//   --json   machine-readable BENCH_serve.json schema
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/table.hpp"
#include "serve/serving.hpp"

namespace {

using namespace knots;

/// The sustained-throughput config: the paper's ten-node cluster, Poisson
/// arrivals well past the harvested capacity, a 30 s window. Both the
/// committed baseline and the CI smoke run use exactly this point, so the
/// 80% gate compares like with like.
constexpr double kSustainedQps = 240.0;
constexpr SimTime kServeWindow = 30 * kSec;

serve::ServingConfig serve_config(double qps, serve::ArrivalShape shape) {
  serve::ServingConfig cfg = serve::default_serving(qps, shape);
  cfg.experiment = ExperimentConfig::Builder{}
                       .scheduler(sched::SchedulerKind::kPeakPrediction)
                       .build();
  cfg.window = kServeWindow;
  return cfg;
}

void record_point(bench::Session& session, serve::ArrivalShape shape,
                  double qps, const serve::ServingReport& r,
                  TablePrinter& table) {
  const std::size_t served = r.completed + r.degraded;
  const double shed_frac =
      r.offered > 0 ? static_cast<double>(r.shed) / r.offered : 0.0;
  table.row({std::string(serve::to_string(shape)), fmt(qps, 0),
             std::to_string(r.offered), std::to_string(served),
             fmt(r.achieved_qps, 1), fmt(100.0 * shed_frac, 1),
             fmt(r.latency.p50_ms, 1), fmt(r.latency.p99_ms, 1),
             fmt(r.latency.p999_ms, 1), std::to_string(r.scale_ups)});
  session.record(
      std::string(serve::to_string(shape)) + "_" + fmt(qps, 0) + "qps",
      {{"offered_qps", qps},
       {"offered", static_cast<double>(r.offered)},
       {"served", static_cast<double>(served)},
       {"achieved_qps", r.achieved_qps},
       {"shed_fraction", shed_frac},
       {"p50_ms", r.latency.p50_ms},
       {"p99_ms", r.latency.p99_ms},
       {"p999_ms", r.latency.p999_ms},
       {"slo_violations", static_cast<double>(r.slo_violations)},
       {"scale_ups", static_cast<double>(r.scale_ups)}});
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(argc, argv, "serve");

  const auto sustained = serve::run_serving(
      serve_config(kSustainedQps, serve::ArrivalShape::kPoisson));

  TablePrinter table("Serving load curves (10-node P100, PP scheduler, " +
                     std::to_string(kServeWindow / kSec) + " s window)");
  table.columns({"arrivals", "qps", "offered", "served", "goodput qps",
                 "shed %", "p50 ms", "p99 ms", "p999 ms", "scale-ups"});

  std::vector<double> loads = {30, 60, 120, kSustainedQps};
  if (session.fast()) loads = {60, kSustainedQps};

  for (const auto shape :
       {serve::ArrivalShape::kPoisson, serve::ArrivalShape::kDiurnal,
        serve::ArrivalShape::kFlashCrowd}) {
    for (const double qps : loads) {
      // Reuse the headline run for the sustained Poisson point.
      const serve::ServingReport r =
          (shape == serve::ArrivalShape::kPoisson && qps == kSustainedQps)
              ? sustained
              : serve::run_serving(serve_config(qps, shape));
      record_point(session, shape, qps, r, table);
    }
  }
  table.print(std::cout);

  // The headline figure: goodput the cluster sustains when offered well
  // past capacity. The CI gate compares this point against the committed
  // BENCH_serve.json at 80%.
  std::cout << "\nSustained throughput (Poisson @ " << fmt(kSustainedQps, 0)
            << " qps offered): " << fmt(sustained.achieved_qps, 1)
            << " qps served, p99 " << fmt(sustained.latency.p99_ms, 1)
            << " ms\n";
  session.record("sustained_throughput",
                 {{"offered_qps", kSustainedQps},
                  {"achieved_qps", sustained.achieved_qps},
                  {"p99_ms", sustained.latency.p99_ms},
                  {"p999_ms", sustained.latency.p999_ms}});
  return 0;
}
