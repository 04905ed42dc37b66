// ArrivalProcess contract: every generator returns a sorted stream of
// strictly-positive timestamps inside the window, deterministic in its Rng,
// with the statistical shape its name promises.
#include <gtest/gtest.h>

#include <algorithm>

#include "workload/alibaba.hpp"
#include "workload/arrival.hpp"

namespace knots::workload {
namespace {

constexpr SimTime kWindow = 20 * kSec;

void expect_well_formed(const std::vector<SimTime>& arrivals,
                        SimTime duration) {
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  for (const SimTime t : arrivals) {
    EXPECT_GT(t, 0);
    EXPECT_LT(t, duration);
  }
}

TEST(Arrival, PoissonRateAndDeterminism) {
  const PoissonArrivals p(200.0);
  const auto a = p.generate(kWindow, Rng(7));
  const auto b = p.generate(kWindow, Rng(7));
  EXPECT_EQ(a, b);  // generate() is const and takes Rng by value.
  expect_well_formed(a, kWindow);

  // 200 qps over 20 s -> ~4000 arrivals; +-10 % is ~6.3 sigma.
  EXPECT_NEAR(static_cast<double>(a.size()), 4000.0, 400.0);

  const auto other_seed = p.generate(kWindow, Rng(8));
  EXPECT_NE(a, other_seed);
}

TEST(Arrival, ZeroRateIsEmpty) {
  EXPECT_TRUE(PoissonArrivals(0.0).generate(kWindow, Rng(1)).empty());
  EXPECT_TRUE(DiurnalArrivals(0.0).generate(kWindow, Rng(1)).empty());
  EXPECT_TRUE(
      FlashCrowdArrivals(0.0, 5.0, kSec, kSec).generate(kWindow, Rng(1))
          .empty());
}

TEST(Arrival, DiurnalModulatesRate) {
  // One peak, strong swing: the first half-window (sin > 0) must carry
  // clearly more traffic than the second (sin < 0).
  const DiurnalArrivals d(200.0, /*amplitude=*/0.9, /*peaks=*/1);
  const auto a = d.generate(kWindow, Rng(11));
  expect_well_formed(a, kWindow);
  const auto mid = std::lower_bound(a.begin(), a.end(), kWindow / 2);
  const auto first_half = static_cast<double>(mid - a.begin());
  const auto second_half = static_cast<double>(a.end() - mid);
  EXPECT_GT(first_half, 1.5 * second_half);
}

TEST(Arrival, FlashCrowdSpikesInsideItsWindow) {
  const SimTime spike_at = 10 * kSec;
  const SimTime spike_len = 2 * kSec;
  const FlashCrowdArrivals f(100.0, /*spike_multiplier=*/8.0, spike_at,
                             spike_len);
  const auto a = f.generate(kWindow, Rng(13));
  expect_well_formed(a, kWindow);

  const auto begin =
      std::lower_bound(a.begin(), a.end(), spike_at) - a.begin();
  const auto end =
      std::lower_bound(a.begin(), a.end(), spike_at + spike_len) - a.begin();
  const double in_spike = static_cast<double>(end - begin);
  const double outside = static_cast<double>(a.size()) - in_spike;
  // Spike carries 8x rate over 2 s vs 1x over 18 s: per-second density in
  // the spike must dominate.
  const double spike_density = in_spike / 2.0;
  const double base_density = outside / 18.0;
  EXPECT_GT(spike_density, 4.0 * base_density);
}

TEST(Arrival, AlibabaMatchesTheUnderlyingTrace) {
  // AlibabaArrivals is AlibabaTrace::arrivals behind the ArrivalProcess
  // interface — bit-identical streams, so the load generator's goldens are
  // untouched by the API migration.
  const SimTime mean_gap = 50 * kMsec;
  const AlibabaArrivals process(mean_gap, /*burstiness=*/0.5,
                                /*diurnal=*/true);
  const auto via_interface = process.generate(kWindow, Rng(42).fork(3));

  AlibabaTrace trace(Rng(42).fork(3));
  const auto direct = trace.arrivals(kWindow, mean_gap, 0.5, true);
  EXPECT_EQ(via_interface, direct);
}

TEST(Arrival, ForkAtYieldsIndependentStreams) {
  const PoissonArrivals p(100.0);
  const Rng base(42);
  const auto s0 = p.generate(kWindow, base.fork_at(0x100, 0));
  const auto s1 = p.generate(kWindow, base.fork_at(0x100, 1));
  EXPECT_NE(s0, s1);
}

}  // namespace
}  // namespace knots::workload
