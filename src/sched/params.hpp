// Shared tuning parameters of the four scheduling policies.
#pragma once

#include "core/types.hpp"

namespace knots::sched {

struct SchedParams {
  // Res-Ag: per-GPU resident cap (the modified device plugin's sharing
  // limit).
  int max_residents = 3;

  // CBP: pods whose image memory signatures correlate above this Spearman
  // threshold are not co-located (§IV-C / Algorithm 1's Can_Co-locate).
  double correlation_threshold = 0.5;
  // Container resize target: provision for this duration-weighted
  // percentile of the observed footprint (80th per Fig 2b; the ablation
  // bench sweeps it).
  double provision_percentile = 80.0;

  // PP: telemetry window d (§IV-D: five-second sliding window).
  SimTime window = 5 * kSec;
};

}  // namespace knots::sched
