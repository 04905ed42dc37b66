// Randomized operation-sequence test: the GPU device model must agree with
// an ordered reference model under any interleaving of attach/detach/
// resize/set_usage/park operations. Pods attach in random id order, and
// the model folds its totals in pod-id order, so every total must match it
// bit for bit, not just within a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "gpu/gpu_device.hpp"

namespace knots::gpu {
namespace {

constexpr std::int32_t kIdPool = 48;

struct ModelRow {
  Usage usage{};
  double provisioned_mb = 0.0;
};
using Model = std::map<std::int32_t, ModelRow>;

/// The device's totals recomputed from the model, summed in pod-id order.
GpuTotals model_totals(const Model& model, const GpuSpec& spec) {
  GpuTotals t;
  for (const auto& [id, row] : model) {
    t.sm_demand += row.usage.sm;
    t.memory_used_mb += row.usage.memory_mb;
    t.tx_mbps += row.usage.tx_mbps;
    t.rx_mbps += row.usage.rx_mbps;
    t.memory_provisioned_mb += row.provisioned_mb;
    ++t.residents;
    if (row.usage.sm > spec.active_sm_threshold) ++t.active_contexts;
  }
  t.sm_util = std::min(1.0, t.sm_demand);
  t.tx_mbps = std::min(t.tx_mbps, spec.pcie_mbps);
  t.rx_mbps = std::min(t.rx_mbps, spec.pcie_mbps);
  return t;
}

std::int32_t random_id(Rng& rng) {
  return static_cast<std::int32_t>(rng.uniform_int(0, kIdPool - 1));
}

Model::iterator random_row(Model& model, Rng& rng) {
  auto it = model.begin();
  std::advance(it, rng.uniform_int(
                       0, static_cast<std::int64_t>(model.size()) - 1));
  return it;
}

class DeviceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeviceFuzz, InvariantsHoldUnderRandomOps) {
  Rng rng(GetParam());
  GpuDevice dev(GpuId{0});
  Model model;

  for (int step = 0; step < 4000; ++step) {
    const double dice = rng.uniform();
    if (dice < 0.25) {  // attach a random id; a resident one must refuse
      const std::int32_t id = random_id(rng);
      const double prov = rng.uniform(0, 8000);
      const bool fresh = !model.contains(id);
      ASSERT_EQ(dev.attach(PodId{id}, prov), fresh);
      if (fresh) model[id] = ModelRow{Usage{}, prov};
    } else if (dice < 0.45 && !model.empty()) {  // detach a random resident
      const auto it = random_row(model, rng);
      dev.detach(PodId{it->first});
      model.erase(it);
    } else if (dice < 0.50) {  // detach an id that is not resident: no-op
      const std::int32_t id = random_id(rng);
      if (!model.contains(id)) dev.detach(PodId{id});
    } else if (dice < 0.72 && !model.empty()) {  // update usage
      const auto it = random_row(model, rng);
      Usage u;
      u.sm = rng.uniform(0, 0.6);
      u.memory_mb = rng.uniform(0, 2000);
      u.tx_mbps = rng.uniform(0, 3000);
      u.rx_mbps = rng.uniform(0, 3000);
      const bool ok = dev.set_usage(PodId{it->first}, u);
      it->second.usage = u;
      EXPECT_EQ(ok, model_totals(model, dev.spec()).memory_used_mb <=
                        dev.effective_memory_mb());
    } else if (dice < 0.87 && !model.empty()) {  // resize
      const auto it = random_row(model, rng);
      const double target = rng.uniform(0, 6000);
      const bool ok = dev.resize(PodId{it->first}, target);
      EXPECT_EQ(ok, target >= it->second.usage.memory_mb);
      if (ok) it->second.provisioned_mb = target;
    } else if (model.empty()) {  // park attempt
      dev.set_parked(true);
      EXPECT_TRUE(dev.parked());
    }

    // Every total, bit for bit, against the pod-id-order fold.
    const auto t = dev.totals();
    const auto want = model_totals(model, dev.spec());
    ASSERT_EQ(t.sm_demand, want.sm_demand);
    ASSERT_EQ(t.sm_util, want.sm_util);
    ASSERT_EQ(t.active_contexts, want.active_contexts);
    ASSERT_EQ(t.memory_used_mb, want.memory_used_mb);
    ASSERT_EQ(t.memory_provisioned_mb, want.memory_provisioned_mb);
    ASSERT_EQ(t.tx_mbps, want.tx_mbps);
    ASSERT_EQ(t.rx_mbps, want.rx_mbps);
    ASSERT_EQ(t.residents, want.residents);

    // The resident table: ids ascending, allocations parallel to them, and
    // the per-pod lookups agree for residents and non-residents alike.
    std::vector<PodId> ids;
    std::vector<double> allocations;
    for (const auto& [id, row] : model) {
      ids.push_back(PodId{id});
      allocations.push_back(row.provisioned_mb);
    }
    ASSERT_EQ(dev.residents(), ids);
    ASSERT_EQ(dev.resident_pods(), ids);
    ASSERT_EQ(dev.allocations(), allocations);
    for (std::int32_t id = 0; id < kIdPool; ++id) {
      const auto row = model.find(id);
      const bool in_model = row != model.end();
      ASSERT_EQ(dev.resident(PodId{id}), in_model);
      ASSERT_EQ(dev.provisioned_mb(PodId{id}),
                in_model ? std::optional<double>(row->second.provisioned_mb)
                         : std::nullopt);
    }

    ASSERT_GE(dev.slowdown(), 1.0);
    ASSERT_GT(dev.power_watts(), 0.0);
    if (t.residents > 0) {
      ASSERT_FALSE(dev.parked());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceFuzz,
                         ::testing::Values(1u, 7u, 42u, 1337u, 90210u));

}  // namespace
}  // namespace knots::gpu
