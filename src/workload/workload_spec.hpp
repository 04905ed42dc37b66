// Fluent workload builders — the one way to assemble PodSpecs.
//
// Before this API every example hand-rolled PodSpec fields (and each copy
// re-invented the memory-overprovision factor as a magic constant). The
// builders centralize the paper's conventions:
//   * BatchJobSpec — a scaled-up Rodinia characterization run whose
//     user-declared request overstates the real peak by a *named*
//     `memory_headroom` factor (Observation 2), capped at a fraction of
//     device memory.
//   * ServiceSpec — one batched Djinn&Tonic inference query (TF-greedy
//     allocation, §V-B QoS floor), or a long-running serving *replica*
//     (PodClass::kService) that knots::serve scales up and down.
//   * WorkloadSpec — composes explicit pods and ArrivalProcess-driven
//     streams into the sorted, densely-id'd vector the cluster loads.
// Builders draw no randomness; callers pass sampled parameters in, which
// keeps RNG draw order (and therefore golden digests) owned by call sites.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "gpu/device_model.hpp"
#include "workload/arrival.hpp"
#include "workload/djinn_tonic.hpp"
#include "workload/load_generator.hpp"
#include "workload/rodinia.hpp"

namespace knots::workload {

/// Default overprovision factor for batch requests when the caller does not
/// sample one: the midpoint-ish "users ask for ~1.8x what they touch"
/// figure the examples used to hard-code.
inline constexpr double kDefaultMemoryHeadroom = 1.8;

/// Fraction of device memory a single pod's request may not exceed.
inline constexpr double kRequestCapFraction = 0.95;

class BatchJobSpec {
 public:
  explicit BatchJobSpec(RodiniaApp app) : app_(app) {}

  /// Stretch the sub-second characterization cycle to job length.
  BatchJobSpec& time_scale(double factor) {
    time_scale_ = factor;
    return *this;
  }
  BatchJobSpec& cycles(int n) {
    cycles_ = n;
    return *this;
  }
  /// Named overprovision knob: requested = peak * headroom (Observation 2).
  BatchJobSpec& memory_headroom(double factor) {
    headroom_ = factor;
    return *this;
  }
  /// Caps the declared request at kRequestCapFraction of a `device_mb`
  /// device (by default, of the default 16 GB device).
  BatchJobSpec& cap_device_mb(double device_mb) {
    cap_mb_ = device_mb * kRequestCapFraction;
    return *this;
  }
  BatchJobSpec& arrival(SimTime t) {
    arrival_ = t;
    return *this;
  }
  /// Owning tenant for quota accounting (0 = default tenant).
  BatchJobSpec& tenant(int id) {
    tenant_ = id;
    return *this;
  }

  [[nodiscard]] PodSpec build() const;

 private:
  RodiniaApp app_;
  double time_scale_ = 1.0;
  int cycles_ = 1;
  double headroom_ = kDefaultMemoryHeadroom;
  /// Default cap: 95 % of the baseline device model's memory (the registry
  /// is the single home of the P100's 16384 MB).
  double cap_mb_ = gpu::default_device_model().gpu.memory_mb *
                   kRequestCapFraction;
  SimTime arrival_ = 0;
  int tenant_ = 0;
};

class ServiceSpec {
 public:
  explicit ServiceSpec(Service s) : service_(s) {}

  ServiceSpec& batch(int batch_size) {
    batch_ = batch_size;
    return *this;
  }
  ServiceSpec& arrival(SimTime t) {
    arrival_ = t;
    return *this;
  }
  /// Exact end-to-end deadline (no per-service floor applied).
  ServiceSpec& qos(SimTime deadline) {
    qos_exact_ = deadline;
    return *this;
  }
  /// User-facing budget with the §V-B floor: the effective deadline is
  /// max(budget, 3/2 * uncontended latency + 30 ms), so heavyweight
  /// batched queries get a proportional SLO rather than an unmeetable one.
  ServiceSpec& qos_target(SimTime budget) {
    qos_budget_ = budget;
    return *this;
  }
  /// Stock-TF greedy allocation: the declared request is the ~99 %-of-
  /// device earmark GPU-agnostic schedulers see (Fig 4's TF series).
  ServiceSpec& tf_greedy(double device_mb) {
    tf_device_mb_ = device_mb;
    return *this;
  }
  /// Right-sized request instead: real footprint times a named headroom.
  ServiceSpec& memory_headroom(double factor) {
    headroom_ = factor;
    return *this;
  }
  /// Owning tenant for quota accounting (0 = default tenant).
  ServiceSpec& tenant(int id) {
    tenant_ = id;
    return *this;
  }
  /// Keep the pod off spot/preemptible nodes (SLO-bearing replicas).
  ServiceSpec& avoid_preemptible(bool avoid = true) {
    avoid_preemptible_ = avoid;
    return *this;
  }

  /// One latency-critical query pod (PodClass::kLatencyCritical).
  [[nodiscard]] PodSpec build() const;

  /// A long-running serving replica (PodClass::kService): a warm model
  /// server that processes dynamic batches for `lifetime`. Its profile is
  /// the steady-state demand of back-to-back batches at this batch size;
  /// knots::serve retires it early when the autoscaler shrinks.
  [[nodiscard]] PodSpec replica(SimTime lifetime) const;

 private:
  [[nodiscard]] SimTime effective_qos() const;

  Service service_;
  int batch_ = 1;
  SimTime arrival_ = 0;
  std::optional<SimTime> qos_exact_;
  SimTime qos_budget_ = 150 * kMsec;
  std::optional<double> tf_device_mb_;
  double headroom_ = 1.1;
  int tenant_ = 0;
  bool avoid_preemptible_ = false;
};

/// Composes pods and arrival-driven streams into a loadable workload.
class WorkloadSpec {
 public:
  using PodFactory = std::function<PodSpec(SimTime arrival)>;

  WorkloadSpec& add(PodSpec pod);

  /// One pod per arrival of `process` over `duration`, built by `factory`
  /// (which receives the arrival time and may draw from its own rng).
  WorkloadSpec& stream(const ArrivalProcess& process, SimTime duration,
                       Rng rng, const PodFactory& factory);

  /// Sorted by arrival (stable), densely re-id'd from 0 — the shape
  /// Cluster::load requires. Consumes the accumulated pods.
  [[nodiscard]] std::vector<PodSpec> build();

  [[nodiscard]] std::size_t size() const noexcept { return pods_.size(); }

 private:
  std::vector<PodSpec> pods_;
};

}  // namespace knots::workload
