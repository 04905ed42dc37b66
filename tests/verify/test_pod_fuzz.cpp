// Randomized legal-transition fuzz of the Pod state machine: many walks
// through Pending → Starting → Running → {Completed | Crashed → Pending |
// Evicted → Pending} asserting the documented invariants at every step, with
// particular attention to crash or eviction → requeue → restart cycles.
#include <gtest/gtest.h>

#include "cluster/pod.hpp"
#include "core/rng.hpp"

namespace knots::cluster {
namespace {

workload::PodSpec fuzz_spec(Rng& rng) {
  std::vector<workload::Phase> phases;
  const int n_phases = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < n_phases; ++i) {
    workload::Phase phase;
    phase.duration = rng.uniform_int(10, 100) * kMsec;
    phase.usage = gpu::Usage{rng.uniform(0.0, 1.0),
                             rng.uniform(100.0, 4000.0), 0, 0};
    phases.push_back(phase);
  }
  workload::PodSpec spec;
  spec.id = PodId{0};
  spec.app = "fuzz";
  spec.klass = rng.chance(0.5) ? workload::PodClass::kLatencyCritical
                               : workload::PodClass::kBatch;
  spec.arrival = rng.uniform_int(0, 1000) * kMsec;
  spec.profile = workload::AppProfile("fuzz", std::move(phases));
  spec.requested_mb = rng.uniform(500.0, 8000.0);
  return spec;
}

void check_always_invariants(const Pod& pod) {
  const double progress = pod.progress();
  EXPECT_GE(progress, 0.0);
  EXPECT_LE(progress, 1.0);
  // finished_profile() and progress() must agree on the saturation point.
  EXPECT_EQ(pod.finished_profile(), progress >= 1.0);
  EXPECT_EQ(pod.terminal(), pod.state() == PodState::kCompleted);
  EXPECT_GE(pod.crash_count(), 0);
}

TEST(PodFuzz, RandomizedLegalWalks) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    Pod pod(fuzz_spec(rng));
    SimTime now = pod.spec().arrival;
    int expected_crashes = 0;
    int expected_evictions = 0;
    SimTime expected_first_start = -1;
    const SimTime total = pod.spec().profile.total_duration();
    ASSERT_GT(total, 0);

    for (int step = 0; step < 400; ++step) {
      check_always_invariants(pod);
      switch (pod.state()) {
        case PodState::kPending: {
          const GpuId gpu{static_cast<std::int32_t>(rng.uniform_int(0, 9))};
          const double mb = rng.uniform(100.0, 16384.0);
          const SimTime latency = rng.uniform_int(1, 2000) * kMsec;
          pod.begin_start(gpu, mb, now, now + latency);
          if (expected_first_start < 0) expected_first_start = now;
          EXPECT_EQ(pod.state(), PodState::kStarting);
          EXPECT_EQ(pod.gpu(), gpu);
          EXPECT_DOUBLE_EQ(pod.provisioned_mb(), mb);
          EXPECT_EQ(pod.ready_at(), now + latency);
          // First-start sticks across crash/relaunch cycles (it feeds
          // queueing-delay metrics, not restart accounting).
          EXPECT_EQ(pod.first_start(), expected_first_start);
          now = pod.ready_at();
          break;
        }
        case PodState::kStarting: {
          const double dice = rng.uniform();
          if (dice < 0.1) {
            pod.crash(now);
            ++expected_crashes;
            EXPECT_EQ(pod.state(), PodState::kCrashed);
          } else if (dice < 0.15) {
            // The hosting node died while the container launched.
            pod.evict(now);
            ++expected_evictions;
            EXPECT_EQ(pod.state(), PodState::kEvicted);
          } else {
            pod.begin_running(now);
            EXPECT_EQ(pod.state(), PodState::kRunning);
            EXPECT_EQ(pod.running_since(), now);
          }
          break;
        }
        case PodState::kRunning: {
          if (rng.chance(0.1)) {
            pod.crash(now);
            ++expected_crashes;
            // Restart-from-scratch semantics: all progress is lost.
            EXPECT_EQ(pod.state(), PodState::kCrashed);
            EXPECT_DOUBLE_EQ(pod.progress(), 0.0);
            break;
          }
          if (rng.chance(0.05)) {
            pod.evict(now);
            ++expected_evictions;
            // Evicted pods restart from scratch too.
            EXPECT_EQ(pod.state(), PodState::kEvicted);
            EXPECT_DOUBLE_EQ(pod.progress(), 0.0);
            break;
          }
          const double before = pod.progress();
          const SimTime dt = rng.uniform_int(1, 40) * kMsec;
          pod.advance(dt);
          now += dt;
          EXPECT_GE(pod.progress(), before);  // Progress is monotone.
          EXPECT_EQ(pod.app_time() >= total, pod.finished_profile());
          if (pod.finished_profile()) {
            pod.complete(now);
            EXPECT_TRUE(pod.terminal());
            EXPECT_EQ(pod.completion(), now);
          }
          break;
        }
        case PodState::kCrashed: {
          EXPECT_EQ(pod.crash_count(), expected_crashes);
          now += rng.uniform_int(1, 3000) * kMsec;  // Relaunch delay.
          pod.requeue();
          EXPECT_EQ(pod.state(), PodState::kPending);
          EXPECT_DOUBLE_EQ(pod.progress(), 0.0);
          break;
        }
        case PodState::kEvicted: {
          EXPECT_EQ(pod.evict_count(), expected_evictions);
          EXPECT_FALSE(pod.gpu().valid());
          EXPECT_DOUBLE_EQ(pod.provisioned_mb(), 0.0);
          EXPECT_DOUBLE_EQ(pod.progress(), 0.0);
          now += rng.uniform_int(1, 3000) * kMsec;  // Eviction delay.
          pod.requeue();
          EXPECT_EQ(pod.state(), PodState::kPending);
          break;
        }
        case PodState::kCompleted:
          step = 400;  // Terminal: walk done.
          break;
      }
    }
    check_always_invariants(pod);
    EXPECT_EQ(pod.crash_count(), expected_crashes) << "seed " << seed;
    EXPECT_EQ(pod.evict_count(), expected_evictions) << "seed " << seed;
    if (pod.state() == PodState::kCompleted) {
      EXPECT_TRUE(pod.finished_profile());
      EXPECT_GE(pod.completion(), expected_first_start);
    }
  }
}

TEST(PodFuzz, CrashRequeueRestartCycleRestoresCleanState) {
  Rng rng(7);
  Pod pod(fuzz_spec(rng));
  const SimTime total = pod.spec().profile.total_duration();
  // Three full crash cycles, then a clean completion.
  SimTime now = pod.spec().arrival;
  for (int cycle = 0; cycle < 3; ++cycle) {
    pod.begin_start(GpuId{1}, 2000.0, now, now + 25 * kMsec);
    now += 25 * kMsec;
    pod.begin_running(now);
    pod.advance(total / 2);
    now += total / 2;
    EXPECT_GT(pod.progress(), 0.0);
    pod.crash(now);
    EXPECT_EQ(pod.crash_count(), cycle + 1);
    EXPECT_FALSE(pod.gpu().valid());
    EXPECT_DOUBLE_EQ(pod.provisioned_mb(), 0.0);
    now += 3 * kSec;
    pod.requeue();
    EXPECT_EQ(pod.state(), PodState::kPending);
  }
  pod.begin_start(GpuId{2}, 2000.0, now, now + 25 * kMsec);
  now += 25 * kMsec;
  pod.begin_running(now);
  pod.advance(total);
  now += total;
  ASSERT_TRUE(pod.finished_profile());
  pod.complete(now);
  EXPECT_TRUE(pod.terminal());
  EXPECT_EQ(pod.crash_count(), 3);
}

}  // namespace
}  // namespace knots::cluster
