#include "serve/admission.hpp"

#include <cstdint>

#include "core/check.hpp"

namespace knots::serve {

SimTime predict_completion(SimTime now, std::size_t queue_depth, int replicas,
                           int max_batch, SimTime batch_timeout,
                           SimTime batch_latency) {
  if (replicas <= 0) return kMaxPrediction;
  KNOTS_CHECK(max_batch >= 1);
  // The request joins the (queue_depth / max_batch + 1)-th batch; batches
  // round-robin across replicas.
  const auto batches_ahead =
      static_cast<std::int64_t>(queue_depth / static_cast<std::size_t>(max_batch)) + 1;
  const auto rounds =
      (batches_ahead + replicas - 1) / static_cast<std::int64_t>(replicas);
  return now + batch_timeout + rounds * batch_latency;
}

}  // namespace knots::serve
