#include "gpu/gpu_device.hpp"

#include <gtest/gtest.h>

namespace knots::gpu {
namespace {

GpuDevice make_device() { return GpuDevice(GpuId{0}); }

TEST(GpuDevice, AttachDetachLifecycle) {
  auto dev = make_device();
  EXPECT_TRUE(dev.attach(PodId{1}, 1000));
  EXPECT_TRUE(dev.resident(PodId{1}));
  EXPECT_EQ(dev.totals().residents, 1);
  EXPECT_DOUBLE_EQ(*dev.provisioned_mb(PodId{1}), 1000);
  dev.detach(PodId{1});
  EXPECT_FALSE(dev.resident(PodId{1}));
  EXPECT_EQ(dev.totals().residents, 0);
}

TEST(GpuDevice, DuplicateAttachFails) {
  auto dev = make_device();
  EXPECT_TRUE(dev.attach(PodId{1}, 100));
  EXPECT_FALSE(dev.attach(PodId{1}, 100));
}

TEST(GpuDevice, AllocationsMayOvercommitButProvisionFitsReportsTruth) {
  auto dev = make_device();
  EXPECT_TRUE(dev.provision_fits(16000));
  EXPECT_TRUE(dev.attach(PodId{1}, 12000));
  EXPECT_TRUE(dev.provision_fits(4000));
  EXPECT_FALSE(dev.provision_fits(5000));
  // An agnostic scheduler can still overcommit claims.
  EXPECT_TRUE(dev.attach(PodId{2}, 9000));
  EXPECT_GT(dev.totals().memory_provisioned_mb, dev.spec().memory_mb);
}

TEST(GpuDevice, SetUsageAggregatesTotals) {
  auto dev = make_device();
  ASSERT_TRUE(dev.attach(PodId{1}, 4000));
  ASSERT_TRUE(dev.attach(PodId{2}, 4000));
  EXPECT_TRUE(dev.set_usage(PodId{1}, {0.4, 1000, 500, 100}));
  EXPECT_TRUE(dev.set_usage(PodId{2}, {0.3, 2000, 200, 50}));
  const auto t = dev.totals();
  EXPECT_NEAR(t.sm_demand, 0.7, 1e-12);
  EXPECT_NEAR(t.sm_util, 0.7, 1e-12);
  EXPECT_NEAR(t.memory_used_mb, 3000, 1e-12);
  EXPECT_NEAR(t.tx_mbps, 700, 1e-12);
  EXPECT_EQ(t.active_contexts, 2);
}

TEST(GpuDevice, SmUtilClampsAtOne) {
  auto dev = make_device();
  ASSERT_TRUE(dev.attach(PodId{1}, 100));
  ASSERT_TRUE(dev.attach(PodId{2}, 100));
  EXPECT_TRUE(dev.set_usage(PodId{1}, {0.9, 10, 0, 0}));
  EXPECT_TRUE(dev.set_usage(PodId{2}, {0.8, 10, 0, 0}));
  EXPECT_NEAR(dev.totals().sm_demand, 1.7, 1e-12);
  EXPECT_DOUBLE_EQ(dev.totals().sm_util, 1.0);
}

TEST(GpuDevice, CapacityViolationReported) {
  auto dev = make_device();
  ASSERT_TRUE(dev.attach(PodId{1}, 9000));
  ASSERT_TRUE(dev.attach(PodId{2}, 9000));
  EXPECT_TRUE(dev.set_usage(PodId{1}, {0.1, 9000, 0, 0}));
  // Second pod's growth pushes aggregate usage past 16384.
  EXPECT_FALSE(dev.set_usage(PodId{2}, {0.1, 9000, 0, 0}));
}

TEST(GpuDevice, ResizeRules) {
  auto dev = make_device();
  ASSERT_TRUE(dev.attach(PodId{1}, 8000));
  EXPECT_TRUE(dev.set_usage(PodId{1}, {0.2, 3000, 0, 0}));
  EXPECT_TRUE(dev.resize(PodId{1}, 4000));       // harvest above usage: ok
  EXPECT_DOUBLE_EQ(*dev.provisioned_mb(PodId{1}), 4000);
  EXPECT_FALSE(dev.resize(PodId{1}, 2000));      // below current usage: no
  EXPECT_FALSE(dev.resize(PodId{9}, 100));       // unknown pod: no
}

TEST(GpuDevice, SlowdownModel) {
  auto dev = make_device();
  EXPECT_DOUBLE_EQ(dev.slowdown(), 1.0);
  ASSERT_TRUE(dev.attach(PodId{1}, 100));
  EXPECT_TRUE(dev.set_usage(PodId{1}, {0.5, 10, 0, 0}));
  EXPECT_DOUBLE_EQ(dev.slowdown(), 1.0);  // single context, below capacity
  ASSERT_TRUE(dev.attach(PodId{2}, 100));
  EXPECT_TRUE(dev.set_usage(PodId{2}, {0.8, 10, 0, 0}));
  // Demand 1.3 over capacity plus one extra active context.
  const double expected =
      1.3 * (1.0 + dev.spec().context_switch_tax);
  EXPECT_NEAR(dev.slowdown(), expected, 1e-12);
}

TEST(GpuDevice, IdleResidentDoesNotCountAsActiveContext) {
  auto dev = make_device();
  ASSERT_TRUE(dev.attach(PodId{1}, 100));
  ASSERT_TRUE(dev.attach(PodId{2}, 100));
  EXPECT_TRUE(dev.set_usage(PodId{1}, {0.9, 10, 0, 0}));
  EXPECT_TRUE(dev.set_usage(PodId{2}, {0.01, 10, 0, 0}));  // below threshold
  EXPECT_EQ(dev.totals().active_contexts, 1);
  EXPECT_DOUBLE_EQ(dev.slowdown(), 1.0);
}

TEST(GpuDevice, ParkingRules) {
  auto dev = make_device();
  dev.set_parked(true);
  EXPECT_TRUE(dev.parked());
  EXPECT_DOUBLE_EQ(dev.power_watts(), dev.spec().power.deep_sleep_watts);
  // Attaching wakes the device.
  EXPECT_TRUE(dev.attach(PodId{1}, 10));
  EXPECT_FALSE(dev.parked());
}

TEST(GpuDevice, PowerTracksState) {
  auto dev = make_device();
  EXPECT_DOUBLE_EQ(dev.power_watts(), dev.spec().power.idle_watts);
  ASSERT_TRUE(dev.attach(PodId{1}, 10));
  EXPECT_DOUBLE_EQ(dev.power_watts(), dev.spec().power.active_floor_watts);
  EXPECT_TRUE(dev.set_usage(PodId{1}, {1.0, 10, 0, 0}));
  EXPECT_DOUBLE_EQ(dev.power_watts(), dev.spec().power.max_watts);
}

TEST(GpuDevice, PcieClampedToLinkCapacity) {
  auto dev = make_device();
  ASSERT_TRUE(dev.attach(PodId{1}, 10));
  ASSERT_TRUE(dev.attach(PodId{2}, 10));
  EXPECT_TRUE(dev.set_usage(PodId{1}, {0, 1, 9000, 0}));
  EXPECT_TRUE(dev.set_usage(PodId{2}, {0, 1, 9000, 0}));
  EXPECT_DOUBLE_EQ(dev.totals().tx_mbps, dev.spec().pcie_mbps);
}

TEST(GpuDevice, TotalsSumInPodIdOrder) {
  // 1e-16 is under half an ulp of 1.0, so the fold order decides the sum:
  // 1.0 + 1e-16 + 1e-16 == 1.0, while 1e-16 + 1e-16 + 1.0 rounds up to
  // 1.0000000000000002. Attached out of id order, the totals must still be
  // the pod-id-order fold.
  auto dev = make_device();
  const auto value = [](PodId pod) { return pod == PodId{2} ? 1.0 : 1e-16; };
  for (PodId pod : {PodId{9}, PodId{2}, PodId{5}}) {
    ASSERT_TRUE(dev.attach(pod, value(pod)));
    ASSERT_TRUE(dev.set_usage(pod, {value(pod), value(pod), 0, 0}));
  }
  const double in_id_order = (1.0 + 1e-16) + 1e-16;
  ASSERT_EQ(in_id_order, 1.0);
  ASSERT_NE((1e-16 + 1e-16) + 1.0, in_id_order);
  EXPECT_EQ(dev.totals().memory_used_mb, in_id_order);
  EXPECT_EQ(dev.totals().memory_provisioned_mb, in_id_order);
  EXPECT_EQ(dev.totals().sm_demand, in_id_order);
  EXPECT_EQ(dev.residents(),
            (std::vector<PodId>{PodId{2}, PodId{5}, PodId{9}}));
  EXPECT_EQ(dev.allocations(), (std::vector<double>{1.0, 1e-16, 1e-16}));
}

TEST(GpuDevice, ResidentPodsSortedAndComplete) {
  auto dev = make_device();
  ASSERT_TRUE(dev.attach(PodId{5}, 10));
  ASSERT_TRUE(dev.attach(PodId{2}, 10));
  ASSERT_TRUE(dev.attach(PodId{9}, 10));
  const auto pods = dev.resident_pods();
  ASSERT_EQ(pods.size(), 3u);
  EXPECT_EQ(pods[0], PodId{2});
  EXPECT_EQ(pods[1], PodId{5});
  EXPECT_EQ(pods[2], PodId{9});
}

}  // namespace
}  // namespace knots::gpu
