// SLO-aware admission: one shed rule.
//
// At arrival time the engine predicts when the request would complete,
// given the queue depth ahead of it, the usable replica count and the
// batch service time, and sheds the request when the prediction is past
// its deadline (fail fast: the client re-resolves to another region).
// Every admitted request's predicted completion is therefore at or before
// its deadline. tests/serve/test_admission.cpp checks the predictor.
#pragma once

#include <cstddef>
#include <limits>

#include "core/types.hpp"

namespace knots::serve {

/// The prediction when no replica is usable: later than any deadline.
inline constexpr SimTime kMaxPrediction =
    std::numeric_limits<SimTime>::max() / 2;

/// Predicts completion for a request joining a queue of `queue_depth`
/// with `replicas` usable servers, each serving batches of up to
/// `max_batch` in `batch_latency`. The request waits at most
/// `batch_timeout` for its batch to form, then `rounds` full service
/// times, where rounds counts the batches ahead of it round-robined
/// across replicas.
[[nodiscard]] SimTime predict_completion(SimTime now, std::size_t queue_depth,
                                         int replicas, int max_batch,
                                         SimTime batch_timeout,
                                         SimTime batch_latency);

}  // namespace knots::serve
