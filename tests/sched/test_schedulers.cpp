// Behavioural tests of the four policies through the Cluster API.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/percentile.hpp"
#include "sched/cbp.hpp"
#include "sched/peak_prediction.hpp"
#include "sched/registry.hpp"
#include "sched/resource_agnostic.hpp"
#include "workload/load_generator.hpp"

namespace knots::sched {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;

ClusterConfig cfg4() {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.seed = 11;
  return cfg;
}

std::vector<workload::PodSpec> mix_pods(int mix, SimTime dur, uint64_t seed) {
  workload::LoadGenConfig wl;
  wl.duration = dur;
  return workload::generate_workload(workload::app_mix(mix), wl, Rng(seed));
}

TEST(Registry, NamesRoundTrip) {
  for (auto kind : kAllSchedulers) {
    EXPECT_EQ(scheduler_from_name(to_string(kind)), kind);
    auto sched = make_scheduler(kind);
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->name(), to_string(kind));
  }
}

TEST(Registry, ParkingCapability) {
  EXPECT_FALSE(make_scheduler(SchedulerKind::kUniform)->parks_idle_gpus());
  EXPECT_FALSE(
      make_scheduler(SchedulerKind::kResourceAgnostic)->parks_idle_gpus());
  EXPECT_TRUE(make_scheduler(SchedulerKind::kCbp)->parks_idle_gpus());
  EXPECT_TRUE(
      make_scheduler(SchedulerKind::kPeakPrediction)->parks_idle_gpus());
}

TEST(Uniform, NeverCoLocates) {
  // Exclusive access invariant, observed through per-GPU residents at every
  // scheduling step via a wrapper policy.
  class Probe : public cluster::Scheduler {
   public:
    explicit Probe(std::unique_ptr<cluster::Scheduler> inner)
        : inner_(std::move(inner)) {}
    std::string name() const override { return inner_->name(); }
    void on_schedule(cluster::SchedulingContext& ctx) override {
      inner_->on_schedule(ctx);
      for (GpuId gpu : ctx.cluster->all_gpus()) {
        max_residents_ = std::max(max_residents_,
                                  ctx.cluster->device(gpu).totals().residents);
      }
    }
    int max_residents_ = 0;

   private:
    std::unique_ptr<cluster::Scheduler> inner_;
  };
  Probe probe(make_scheduler(SchedulerKind::kUniform));
  Cluster cl(cfg4(), probe);
  cl.load(mix_pods(1, 20 * kSec, 3));
  cl.run();
  EXPECT_EQ(probe.max_residents_, 1);
}

TEST(ResAg, RespectsResidentCap) {
  SchedParams params;
  params.max_residents = 2;
  class Probe : public cluster::Scheduler {
   public:
    Probe(SchedParams p) : inner_(p, 7) {}
    std::string name() const override { return inner_.name(); }
    void on_schedule(cluster::SchedulingContext& ctx) override {
      inner_.on_schedule(ctx);
      for (GpuId gpu : ctx.cluster->all_gpus()) {
        max_residents_ = std::max(max_residents_,
                                  ctx.cluster->device(gpu).totals().residents);
      }
    }
    ResourceAgnosticScheduler inner_;
    int max_residents_ = 0;
  };
  Probe probe(params);
  Cluster cl(cfg4(), probe);
  cl.load(mix_pods(1, 20 * kSec, 3));
  cl.run();
  EXPECT_LE(probe.max_residents_, 2);
  EXPECT_GT(probe.max_residents_, 1);  // sharing actually happened
}

TEST(Cbp, ProvisionsKnownImagesAtPercentile) {
  // After the store learns an image, CBP must allocate well below the
  // (overstated) request — the harvesting step.
  auto pods = mix_pods(1, 40 * kSec, 9);
  CbpScheduler cbp;
  Cluster cl(cfg4(), cbp);
  cl.load(std::move(pods));
  cl.run();
  // Knots learned profiles and the runs completed crash-free.
  const auto* prof = cl.profiles().find(cl.pod(PodId{0}).image());
  ASSERT_NE(prof, nullptr);
  EXPECT_GT(prof->observed_runs, 0);
  EXPECT_EQ(cl.metrics().crash_count(), 0u);
}

TEST(Cbp, NeverOvercommitsPhysicalAllocations) {
  class Probe : public CbpScheduler {
   public:
    using CbpScheduler::CbpScheduler;
    void on_schedule(cluster::SchedulingContext& ctx) override {
      CbpScheduler::on_schedule(ctx);
      for (GpuId gpu : ctx.cluster->all_gpus()) {
        const auto& dev = ctx.cluster->device(gpu);
        ok_ = ok_ && dev.totals().memory_provisioned_mb <=
                         dev.spec().memory_mb + 1e-6;
      }
    }
    bool ok_ = true;
  };
  Probe probe;
  Cluster cl(cfg4(), probe);
  cl.load(mix_pods(1, 30 * kSec, 5));
  cl.run();
  EXPECT_TRUE(probe.ok_);
}

/// CBP's batch container size for an image's profile: max(64, the
/// provision percentile of its signature × 1.05).
double batch_target(const SchedParams& params,
                    const cluster::ImageProfile& prof) {
  return std::max(64.0, percentile_sorted(prof.memory_signature_sorted,
                                          params.provision_percentile) *
                            1.05);
}

/// A one-phase batch pod of `app` (constant SM 0.3 and `memory_mb`),
/// requesting 8,000 MB.
workload::PodSpec batch_pod(std::int32_t id, const std::string& app,
                            SimTime arrival, double memory_mb,
                            SimTime length) {
  workload::PodSpec spec;
  spec.id = PodId{id};
  spec.app = app;
  spec.arrival = arrival;
  spec.profile = workload::AppProfile(
      app, {workload::Phase{length, gpu::Usage{0.3, memory_mb, 0, 0}}});
  spec.requested_mb = 8000;
  return spec;
}

TEST(Cbp, HarvestFollowsInPlaceProfileUpdates) {
  // Three batch pods of one image. A's completion profiles the image, and
  // the harvest shrinks the long-running B to that profile's target. C's
  // completion is the image's second run: record_run merges it into the
  // same profile in place, which lowers the signature percentile. The next
  // harvest must resize B again.
  struct Seen {
    double target_mb = 0;
    double b_provisioned_mb = 0;
  };
  class Probe : public CbpScheduler {
   public:
    void on_schedule(cluster::SchedulingContext& ctx) override {
      CbpScheduler::on_schedule(ctx);
      const auto& cl = *ctx.cluster;
      const auto& b = cl.pod(PodId{1});
      const auto* prof = cl.profiles().find(b.image());
      if (prof == nullptr || b.state() != cluster::PodState::kRunning) return;
      const Seen now{batch_target(params(), *prof), b.provisioned_mb()};
      if (prof->observed_runs == 1) {
        after_first = now;
      } else if (prof->observed_runs == 2 && !second_seen) {
        after_second = now;
        second_seen = true;
      }
    }
    Seen after_first;
    Seen after_second;
    bool second_seen = false;
  };
  Probe probe;
  Cluster cl(cfg4(), probe);
  cl.load({batch_pod(0, "harvest-probe", 0, 4000, 2 * kSec),
           batch_pod(1, "harvest-probe", 0, 500, 60 * kSec),
           batch_pod(2, "harvest-probe", 10 * kSec, 1000, 2 * kSec)});
  cl.run();
  ASSERT_EQ(cl.completed_count(), 3u);
  ASSERT_TRUE(probe.second_seen) << "C must complete while B runs";
  // The premise: the second run moved the target past the resize slack.
  ASSERT_LT(probe.after_second.target_mb * 1.05, probe.after_first.target_mb);
  EXPECT_EQ(probe.after_first.b_provisioned_mb, probe.after_first.target_mb);
  EXPECT_EQ(probe.after_second.b_provisioned_mb,
            probe.after_second.target_mb);
}

TEST(Cbp, TargetCacheHoldsOneEntryPerImage) {
  // 200 batch pods of two images. CBP caches one batch target per image,
  // not per pod, and every batch pod placed once its image is profiled is
  // provisioned at exactly that image's target.
  class PlacementCheck final : public cluster::ClusterObserver {
   public:
    explicit PlacementCheck(const CbpScheduler& cbp) : cbp_(cbp) {}
    void on_place(const Cluster& cl, PodId id, GpuId,
                  double provisioned_mb) override {
      const auto* prof = cl.profiles().find(cl.pod(id).image());
      if (prof == nullptr) return;
      ++profiled_;
      EXPECT_EQ(provisioned_mb, batch_target(cbp_.params(), *prof))
          << "pod " << id.value;
    }
    int profiled_ = 0;

   private:
    const CbpScheduler& cbp_;
  };
  std::vector<workload::PodSpec> pods;
  for (std::int32_t i = 0; i < 200; ++i) {
    const bool even = i % 2 == 0;
    pods.push_back(batch_pod(i, even ? "alpha" : "beta", i * 100 * kMsec,
                             even ? 1500.0 : 2500.0,
                             (even ? 1 : 2) * kSec));
  }
  CbpScheduler cbp;
  Cluster cl(cfg4(), cbp);
  PlacementCheck check(cbp);
  cl.add_observer(&check);
  cl.load(std::move(pods));
  cl.run();
  ASSERT_EQ(cl.completed_count(), 200u);
  EXPECT_EQ(cl.profiles().size(), 2u);
  EXPECT_EQ(cbp.cached_targets(), 2u);
  EXPECT_GT(check.profiled_, 150);
}

TEST(Pp, GrantsForecastOverrides) {
  PeakPredictionScheduler pp;
  Cluster cl(cfg4(), pp);
  cl.load(mix_pods(1, 60 * kSec, 13));
  cl.run();
  // The forecast path actually ran on this workload.
  EXPECT_GT(pp.forecasts_made(), 0u);
}

TEST(Pp, ParksIdleGpusUnderLowLoad) {
  PeakPredictionScheduler pp;
  ClusterConfig cfg = cfg4();
  cfg.nodes = 6;
  Cluster cl(cfg, pp);
  cl.load(mix_pods(3, 40 * kSec, 17));  // LOW load mix
  cl.run();
  // After the drain, idle GPUs must have been parked at some point; at end
  // of run all are empty, so all non-woken devices are parked.
  int parked = 0;
  for (GpuId gpu : cl.all_gpus()) {
    parked += cl.device(gpu).parked() ? 1 : 0;
  }
  EXPECT_GT(parked, 0);
}

TEST(PpVsCbp, ForecastEnablesAtLeastAsMuchConsolidation) {
  // PP must never need *more* energy than CBP on the same workload: the
  // forecast only adds placement options (Fig 11a: PP below CBP).
  auto run = [&](SchedulerKind kind) {
    auto sched = make_scheduler(kind);
    Cluster cl(cfg4(), *sched);
    cl.load(mix_pods(1, 60 * kSec, 21));
    cl.run();
    return cl.metrics().energy_joules();
  };
  EXPECT_LE(run(SchedulerKind::kPeakPrediction),
            run(SchedulerKind::kCbp) * 1.10);
}

TEST(QosOrdering, AwareSchedulersBeatAgnosticOnes) {
  // Fig 10a's qualitative ordering on the high-load mix.
  auto violations = [&](SchedulerKind kind) {
    auto sched = make_scheduler(kind);
    ClusterConfig cfg;
    cfg.nodes = 6;
    cfg.seed = 2;
    Cluster cl(cfg, *sched);
    cl.load(mix_pods(1, 90 * kSec, 31));
    cl.run();
    return cl.metrics().qos_violations_per_kilo();
  };
  const double resag = violations(SchedulerKind::kResourceAgnostic);
  const double cbp = violations(SchedulerKind::kCbp);
  const double pp = violations(SchedulerKind::kPeakPrediction);
  EXPECT_LT(cbp, resag);
  EXPECT_LT(pp, resag);
  EXPECT_LT(pp, 20.0);  // "<1 %" claim, generous bound
}

}  // namespace
}  // namespace knots::sched
