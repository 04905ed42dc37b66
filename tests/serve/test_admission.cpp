// Admission predictor properties, fuzzed over the knob space: the predicted
// completion never falls as the queue ahead grows or as replicas go away,
// and with no usable replica nothing can be admitted.
#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "serve/admission.hpp"

namespace knots::serve {
namespace {

struct Scenario {
  SimTime now;
  std::size_t depth;
  int replicas;
  int max_batch;
  SimTime batch_timeout;
  SimTime batch_latency;
};

Scenario draw(Rng& rng) {
  Scenario s;
  s.now = rng.uniform_int(0, 1000) * kMsec;
  s.depth = static_cast<std::size_t>(rng.uniform_int(0, 2000));
  s.replicas = static_cast<int>(rng.uniform_int(0, 12));
  s.max_batch = static_cast<int>(rng.uniform_int(1, 64));
  s.batch_timeout = rng.uniform_int(1, 50) * kMsec;
  s.batch_latency = rng.uniform_int(1, 200) * kMsec;
  return s;
}

TEST(Admission, PredictionMonotoneInQueueDepth) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Scenario s = draw(rng);
    if (s.replicas == 0) continue;
    const SimTime shallow =
        predict_completion(s.now, s.depth, s.replicas, s.max_batch,
                           s.batch_timeout, s.batch_latency);
    const SimTime deeper = predict_completion(
        s.now, s.depth + static_cast<std::size_t>(s.max_batch) * 4,
        s.replicas, s.max_batch, s.batch_timeout, s.batch_latency);
    EXPECT_GE(deeper, shallow);
  }
}

TEST(Admission, PredictionMonotoneInReplicas) {
  // One more usable replica never predicts a later completion, and the
  // prediction never beats one batch timeout plus one batch time.
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const Scenario s = draw(rng);
    const SimTime fewer =
        predict_completion(s.now, s.depth, s.replicas, s.max_batch,
                           s.batch_timeout, s.batch_latency);
    const SimTime more =
        predict_completion(s.now, s.depth, s.replicas + 1, s.max_batch,
                           s.batch_timeout, s.batch_latency);
    EXPECT_LE(more, fewer);
    EXPECT_GE(more, s.now + s.batch_timeout + s.batch_latency);
  }
}

TEST(Admission, NoReplicasMeansNoCapacity) {
  const SimTime p = predict_completion(0, 0, 0, 16, 10 * kMsec, 50 * kMsec);
  EXPECT_EQ(p, kMaxPrediction);
  // Every deadline is earlier, so every arrival is shed while capacity is
  // zero.
  EXPECT_GT(p, kHour);
}

}  // namespace
}  // namespace knots::serve
