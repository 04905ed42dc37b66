#include "knots/kube_knots.hpp"

#include <algorithm>
#include <stdexcept>

#include "verify/invariant_checker.hpp"
#include "verify/run_digest.hpp"

namespace knots {

KubeKnots::KubeKnots(ExperimentConfig config) : config_(std::move(config)) {
  scheduler_ = sched::make_scheduler(config_.scheduler, config_.sched_params);
  cluster::ClusterConfig cluster_cfg = config_.cluster;
  cluster_cfg.seed = config_.seed;
  cluster_ = std::make_unique<cluster::Cluster>(cluster_cfg, *scheduler_);
  cluster_->set_fault_plan(config_.faults);
  verifier_ = std::make_unique<verify::InvariantChecker>(
      invariant_options(config_.scheduler));
  digest_ = std::make_unique<verify::RunDigest>();
  cluster_->add_observer(verifier_.get());
  cluster_->add_observer(digest_.get());
}

KubeKnots::~KubeKnots() = default;

void KubeKnots::submit(workload::PodSpec spec) {
  if (ran_) {
    throw std::logic_error(
        "KubeKnots::submit() called after run(); the simulation is "
        "single-shot — build a new KubeKnots for another run");
  }
  submitted_.push_back(std::move(spec));
}

void KubeKnots::submit_mix_workload() {
  if (ran_) {
    throw std::logic_error(
        "KubeKnots::submit_mix_workload() called after run(); the "
        "simulation is single-shot — build a new KubeKnots for another run");
  }
  for (auto& p : generate_mix_workload(config_)) {
    submitted_.push_back(std::move(p));
  }
}

void KubeKnots::attach_tracer(obs::TraceSink* sink) {
  if (ran_) {
    throw std::logic_error(
        "KubeKnots::attach_tracer() called after run(); attach the tracer "
        "before running");
  }
  cluster_->set_trace_sink(sink);
}

void KubeKnots::attach_metrics(obs::MetricsRegistry* registry) {
  if (ran_) {
    throw std::logic_error(
        "KubeKnots::attach_metrics() called after run(); attach the "
        "registry before running");
  }
  cluster_->set_metrics_registry(registry);
}

ExperimentReport KubeKnots::run() {
  if (ran_) {
    throw std::logic_error(
        "KubeKnots::run() called twice; the simulation is single-shot — "
        "build a new KubeKnots (same config) to replay it");
  }
  ran_ = true;
  std::stable_sort(submitted_.begin(), submitted_.end(),
                   [](const auto& a, const auto& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t i = 0; i < submitted_.size(); ++i) {
    submitted_[i].id = PodId{static_cast<std::int32_t>(i)};
  }
  cluster_->load(std::move(submitted_));
  submitted_.clear();
  cluster_->run();
  // Commit the final tenant ledger to the digest (ascending tenant order —
  // deterministic) so multi-tenant accounting is replay-checked like every
  // other decision. Single-tenant quota-free runs have an empty ledger and
  // mix nothing: historical digests are untouched.
  const auto& ledger = cluster_->tenant_ledger();
  if (!ledger.empty()) {
    for (const auto& row : ledger.rows()) {
      digest_->begin_record(verify::RunDigest::Tag::kTenantAccount,
                            cluster_->now());
      digest_->mix_u64(static_cast<std::uint64_t>(row.tenant));
      digest_->mix_double(row.provisioned_mb);
      digest_->mix_double(row.peak_provisioned_mb);
      digest_->mix_double(row.gpu_seconds);
      digest_->mix_u64(static_cast<std::uint64_t>(row.placements));
      digest_->mix_u64(static_cast<std::uint64_t>(row.rejections));
    }
  }
  ExperimentReport report =
      build_report(*cluster_, scheduler_->name(), config_.mix_id);
  record_verification(report, *digest_, *verifier_);
  return report;
}

const cluster::Cluster& KubeKnots::cluster() const { return *cluster_; }

const verify::InvariantChecker& KubeKnots::verifier() const {
  return *verifier_;
}

const verify::RunDigest& KubeKnots::digest() const { return *digest_; }

}  // namespace knots
