// Layer probes for the traced benchmark run.
//
// Forwarding decorators sit between the simulator and the pieces it calls
// into — the pod scheduler, the verification observers and the DL policy —
// and time every call as a span. They never change an argument, a return
// value or the order of calls, so a traced run makes the untraced run's
// decisions; the run and serve digests prove it on every traced run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/observer.hpp"
#include "cluster/scheduler.hpp"
#include "core/types.hpp"
#include "dlsim/dl_policies.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The layers the decorators wrap.
enum class Layer : std::uint8_t {
  kSched,       ///< cluster::Scheduler calls: rounds and fault hooks.
  kAudit,       ///< verify::InvariantChecker callbacks.
  kDigest,      ///< verify::RunDigest callbacks.
  kDlSchedule,  ///< dlsim::DlScheduler rounds and fault hooks.
  kDlQuery,     ///< dlsim::DlScheduler::serve_query calls.
};
inline constexpr std::size_t kLayerCount = 5;

[[nodiscard]] std::string_view layer_name(Layer layer) noexcept;

/// One wrapped call. Spans of one tick or DL step share `sim_time`.
struct Span {
  Layer layer = Layer::kSched;
  std::int64_t start_ns = 0;  ///< Host ns since the recorder was built.
  std::int64_t end_ns = 0;
  knots::SimTime sim_time = 0;
};

/// Keeps every span in memory, tracks nesting, and totals each layer's
/// inclusive and self time (inclusive minus the spans opened inside it).
class SpanRecorder {
 public:
  SpanRecorder();

  void begin(Layer layer, knots::SimTime sim_time);
  /// Closes the innermost open span and returns its duration in ns.
  std::int64_t end();

  /// True when the innermost open span belongs to `layer`.
  [[nodiscard]] bool innermost_is(Layer layer) const noexcept {
    return !stack_.empty() && stack_.back().layer == layer;
  }
  [[nodiscard]] double inclusive_s(Layer layer) const noexcept;
  [[nodiscard]] double self_s(Layer layer) const noexcept;
  [[nodiscard]] std::uint64_t calls(Layer layer) const noexcept;
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Writes `layer,start_ns,end_ns,sim_time_us` rows, one per span.
  void write_csv(std::ostream& os) const;

 private:
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    knots::SimTime sim_time;
    std::int64_t child_ns;
  };
  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::array<std::int64_t, kLayerCount> inclusive_ns_{};
  std::array<std::int64_t, kLayerCount> child_ns_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
};

/// Where in the cluster's tick an observer callback lands. A tick is open
/// from Cluster::tick_count() advancing until on_tick_end; before its
/// scheduling round begins, the only code that notifies observers is pod
/// advance (completions and crashes) and the rare start-time crash, so
/// callbacks in that stretch are nested in the cluster.advance_ns timer.
struct TickPhase {
  std::uint64_t closed_ticks = 0;  ///< tick_count() at the last on_tick_end.
  std::uint64_t sched_tick = 0;    ///< tick_count() at the last round start.

  [[nodiscard]] bool in_advance(const knots::cluster::Cluster& c) const;
};

/// Times every cluster::Scheduler call into the kSched layer.
class TimedScheduler final : public knots::cluster::Scheduler {
 public:
  TimedScheduler(knots::cluster::Scheduler& inner, SpanRecorder& spans,
                 TickPhase& phase)
      : inner_(inner), spans_(spans), phase_(phase) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void on_schedule(knots::cluster::SchedulingContext& ctx) override;
  void on_node_down(knots::cluster::SchedulingContext& ctx,
                    knots::NodeId node) override;
  void on_node_up(knots::cluster::SchedulingContext& ctx,
                  knots::NodeId node) override;
  void on_telemetry_stale(knots::cluster::SchedulingContext& ctx,
                          knots::GpuId gpu) override;
  [[nodiscard]] bool parks_idle_gpus() const override {
    return inner_.parks_idle_gpus();
  }

  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  /// Pending pods summed over round starts.
  [[nodiscard]] std::uint64_t pending_seen() const noexcept {
    return pending_seen_;
  }

 private:
  knots::cluster::Scheduler& inner_;
  SpanRecorder& spans_;
  TickPhase& phase_;
  std::uint64_t rounds_ = 0;
  std::uint64_t pending_seen_ = 0;
};

/// Times every ClusterObserver callback of the wrapped observer into one
/// layer, and notes the part nested in pod advance.
class TimedObserver final : public knots::cluster::ClusterObserver {
 public:
  TimedObserver(knots::cluster::ClusterObserver& inner, Layer layer,
                SpanRecorder& spans, TickPhase& phase)
      : inner_(inner), layer_(layer), spans_(spans), phase_(phase) {}

  void on_place(const knots::cluster::Cluster& c, knots::PodId pod,
                knots::GpuId gpu, double provisioned_mb) override;
  void on_resize(const knots::cluster::Cluster& c, knots::PodId pod,
                 double provisioned_mb) override;
  void on_crash(const knots::cluster::Cluster& c, knots::PodId pod) override;
  void on_requeue(const knots::cluster::Cluster& c,
                  knots::PodId pod) override;
  void on_evict(const knots::cluster::Cluster& c, knots::PodId pod,
                knots::NodeId node) override;
  void on_node_down(const knots::cluster::Cluster& c,
                    knots::NodeId node) override;
  void on_node_up(const knots::cluster::Cluster& c,
                  knots::NodeId node) override;
  void on_complete(const knots::cluster::Cluster& c,
                   knots::PodId pod) override;
  void on_park(const knots::cluster::Cluster& c, knots::GpuId gpu) override;
  void on_flow_start(const knots::cluster::Cluster& c, std::uint64_t flow,
                     int kind, int src_node, int dst_node,
                     double mb) override;
  void on_flow_finish(const knots::cluster::Cluster& c, std::uint64_t flow,
                      bool contended) override;
  void on_link_down(const knots::cluster::Cluster& c,
                    std::size_t link) override;
  void on_link_up(const knots::cluster::Cluster& c,
                  std::size_t link) override;
  void on_tick_end(const knots::cluster::Cluster& c) override;

  /// Seconds of this observer's callbacks nested in pod advance.
  [[nodiscard]] double in_advance_s() const noexcept {
    return static_cast<double>(in_advance_ns_) * 1e-9;
  }
  [[nodiscard]] std::uint64_t places() const noexcept { return places_; }

 private:
  template <typename Call>
  void timed(const knots::cluster::Cluster& c, Call&& call);

  knots::cluster::ClusterObserver& inner_;
  Layer layer_;
  SpanRecorder& spans_;
  TickPhase& phase_;
  std::int64_t in_advance_ns_ = 0;
  std::uint64_t places_ = 0;
};

/// Base of the DL decorators: forwards every DlScheduler call to the
/// wrapped policy and mirrors its counters, so DlEngine::result() reads the
/// real ones. DlScheduler::on_schedule is final and dispatches to
/// schedule(), so forwarding schedule() and serve_query() covers every
/// call the engine makes.
class ForwardingDlScheduler : public knots::dlsim::DlScheduler {
 public:
  explicit ForwardingDlScheduler(knots::dlsim::DlScheduler& inner)
      : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void schedule(knots::dlsim::DlSchedView& view) override;
  knots::SimTime serve_query(knots::dlsim::DlSchedView& view,
                             const knots::dlsim::DliQuery& query) override;
  void on_node_down(knots::cluster::SchedulingContext& ctx,
                    knots::NodeId node) override;
  void on_node_up(knots::cluster::SchedulingContext& ctx,
                  knots::NodeId node) override;
  void on_telemetry_stale(knots::cluster::SchedulingContext& ctx,
                          knots::GpuId gpu) override;
  [[nodiscard]] bool parks_idle_gpus() const override {
    return inner_.parks_idle_gpus();
  }

 private:
  void mirror_counters() noexcept;

  knots::dlsim::DlScheduler& inner_;
};

/// Times the DL policy's rounds and fault hooks (kDlSchedule) and its
/// queries (kDlQuery).
class TimedDlScheduler final : public ForwardingDlScheduler {
 public:
  TimedDlScheduler(knots::dlsim::DlScheduler& inner, SpanRecorder& spans)
      : ForwardingDlScheduler(inner), spans_(spans) {}

  void schedule(knots::dlsim::DlSchedView& view) override;
  knots::SimTime serve_query(knots::dlsim::DlSchedView& view,
                             const knots::dlsim::DliQuery& query) override;
  void on_node_down(knots::cluster::SchedulingContext& ctx,
                    knots::NodeId node) override;
  void on_node_up(knots::cluster::SchedulingContext& ctx,
                  knots::NodeId node) override;
  void on_telemetry_stale(knots::cluster::SchedulingContext& ctx,
                          knots::GpuId gpu) override;

 private:
  SpanRecorder& spans_;
};

/// Counts the GPUs holding a training job after every DL scheduling round:
/// the DL engine keeps no utilisation series, and gpu_util_p50_pct on a DL
/// workload is the median of this share over rounds.
class OccupancySampler final : public ForwardingDlScheduler {
 public:
  using ForwardingDlScheduler::ForwardingDlScheduler;

  void schedule(knots::dlsim::DlSchedView& view) override;

  /// Median over rounds of the share of GPUs holding a job, percent.
  [[nodiscard]] double median_busy_pct() const;

 private:
  std::vector<std::uint64_t> rounds_with_busy_;  ///< Index: busy GPUs.
  std::size_t gpus_ = 0;
};

}  // namespace perfbench
