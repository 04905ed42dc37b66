#include "runner/probes.hpp"

#include <ostream>

#include "cluster/cluster.hpp"

namespace perfbench {

using knots::GpuId;
using knots::NodeId;
using knots::PodId;
using knots::SimTime;
using knots::cluster::Cluster;
using knots::cluster::SchedulingContext;

std::string_view layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kSched: return "sched";
    case Layer::kAudit: return "verify.audit";
    case Layer::kDigest: return "verify.digest";
    case Layer::kDlSchedule: return "dl.schedule";
    case Layer::kDlQuery: return "dl.query";
  }
  return "unknown";
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

void SpanRecorder::begin(Layer layer, SimTime sim_time) {
  stack_.push_back(Open{layer, now_ns(), sim_time, 0});
}

std::int64_t SpanRecorder::end() {
  const std::int64_t end_ns = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end_ns - open.start_ns;
  const auto i = static_cast<std::size_t>(open.layer);
  inclusive_ns_[i] += duration;
  child_ns_[i] += open.child_ns;
  ++calls_[i];
  if (!stack_.empty()) stack_.back().child_ns += duration;
  spans_.push_back(Span{open.layer, open.start_ns, end_ns, open.sim_time});
  return duration;
}

double SpanRecorder::inclusive_s(Layer layer) const noexcept {
  return static_cast<double>(inclusive_ns_[static_cast<std::size_t>(layer)]) *
         1e-9;
}

double SpanRecorder::self_s(Layer layer) const noexcept {
  const auto i = static_cast<std::size_t>(layer);
  return static_cast<double>(inclusive_ns_[i] - child_ns_[i]) * 1e-9;
}

std::uint64_t SpanRecorder::calls(Layer layer) const noexcept {
  return calls_[static_cast<std::size_t>(layer)];
}

void SpanRecorder::write_csv(std::ostream& os) const {
  os << "layer,start_ns,end_ns,sim_time_us\n";
  for (const Span& s : spans_) {
    os << layer_name(s.layer) << ',' << s.start_ns << ',' << s.end_ns << ','
       << s.sim_time << '\n';
  }
}

bool TickPhase::in_advance(const Cluster& c) const {
  const std::uint64_t tick = c.tick_count();
  return tick != closed_ticks && tick != sched_tick;
}

// ---- TimedScheduler ----

void TimedScheduler::on_schedule(SchedulingContext& ctx) {
  ++rounds_;
  if (ctx.pending != nullptr) pending_seen_ += ctx.pending->size();
  if (ctx.cluster != nullptr) phase_.sched_tick = ctx.cluster->tick_count();
  spans_.begin(Layer::kSched, ctx.now);
  inner_.on_schedule(ctx);
  spans_.end();
}

void TimedScheduler::on_node_down(SchedulingContext& ctx, NodeId node) {
  spans_.begin(Layer::kSched, ctx.now);
  inner_.on_node_down(ctx, node);
  spans_.end();
}

void TimedScheduler::on_node_up(SchedulingContext& ctx, NodeId node) {
  spans_.begin(Layer::kSched, ctx.now);
  inner_.on_node_up(ctx, node);
  spans_.end();
}

void TimedScheduler::on_telemetry_stale(SchedulingContext& ctx, GpuId gpu) {
  spans_.begin(Layer::kSched, ctx.now);
  inner_.on_telemetry_stale(ctx, gpu);
  spans_.end();
}

// ---- TimedObserver ----

template <typename Call>
void TimedObserver::timed(const Cluster& c, Call&& call) {
  // Classify before the call: a scheduler span open means the callback is
  // nested in sched (the recorder charges it there); otherwise the tick
  // phase tells whether it sits inside the pod-advance timer.
  const bool advance =
      !spans_.innermost_is(Layer::kSched) && phase_.in_advance(c);
  spans_.begin(layer_, c.now());
  call();
  const std::int64_t ns = spans_.end();
  if (advance) in_advance_ns_ += ns;
}

void TimedObserver::on_place(const Cluster& c, PodId pod, GpuId gpu,
                             double provisioned_mb) {
  ++places_;
  timed(c, [&] { inner_.on_place(c, pod, gpu, provisioned_mb); });
}

void TimedObserver::on_resize(const Cluster& c, PodId pod,
                              double provisioned_mb) {
  timed(c, [&] { inner_.on_resize(c, pod, provisioned_mb); });
}

void TimedObserver::on_crash(const Cluster& c, PodId pod) {
  timed(c, [&] { inner_.on_crash(c, pod); });
}

void TimedObserver::on_requeue(const Cluster& c, PodId pod) {
  timed(c, [&] { inner_.on_requeue(c, pod); });
}

void TimedObserver::on_evict(const Cluster& c, PodId pod, NodeId node) {
  timed(c, [&] { inner_.on_evict(c, pod, node); });
}

void TimedObserver::on_node_down(const Cluster& c, NodeId node) {
  timed(c, [&] { inner_.on_node_down(c, node); });
}

void TimedObserver::on_node_up(const Cluster& c, NodeId node) {
  timed(c, [&] { inner_.on_node_up(c, node); });
}

void TimedObserver::on_complete(const Cluster& c, PodId pod) {
  timed(c, [&] { inner_.on_complete(c, pod); });
}

void TimedObserver::on_park(const Cluster& c, GpuId gpu) {
  timed(c, [&] { inner_.on_park(c, gpu); });
}

void TimedObserver::on_flow_start(const Cluster& c, std::uint64_t flow,
                                  int kind, int src_node, int dst_node,
                                  double mb) {
  timed(c, [&] { inner_.on_flow_start(c, flow, kind, src_node, dst_node, mb); });
}

void TimedObserver::on_flow_finish(const Cluster& c, std::uint64_t flow,
                                   bool contended) {
  timed(c, [&] { inner_.on_flow_finish(c, flow, contended); });
}

void TimedObserver::on_link_down(const Cluster& c, std::size_t link) {
  timed(c, [&] { inner_.on_link_down(c, link); });
}

void TimedObserver::on_link_up(const Cluster& c, std::size_t link) {
  timed(c, [&] { inner_.on_link_up(c, link); });
}

void TimedObserver::on_tick_end(const Cluster& c) {
  timed(c, [&] { inner_.on_tick_end(c); });
  phase_.closed_ticks = c.tick_count();
}

// ---- DL decorators ----

void ForwardingDlScheduler::mirror_counters() noexcept {
  crashes_ = inner_.crash_restarts();
  migrations_ = inner_.migrations();
  preemptions_ = inner_.preemptions();
}

void ForwardingDlScheduler::schedule(knots::dlsim::DlSchedView& view) {
  inner_.schedule(view);
  mirror_counters();
}

SimTime ForwardingDlScheduler::serve_query(
    knots::dlsim::DlSchedView& view, const knots::dlsim::DliQuery& query) {
  const SimTime latency = inner_.serve_query(view, query);
  mirror_counters();
  return latency;
}

void ForwardingDlScheduler::on_node_down(SchedulingContext& ctx,
                                         NodeId node) {
  inner_.on_node_down(ctx, node);
  mirror_counters();
}

void ForwardingDlScheduler::on_node_up(SchedulingContext& ctx, NodeId node) {
  inner_.on_node_up(ctx, node);
  mirror_counters();
}

void ForwardingDlScheduler::on_telemetry_stale(SchedulingContext& ctx,
                                               GpuId gpu) {
  inner_.on_telemetry_stale(ctx, gpu);
  mirror_counters();
}

void TimedDlScheduler::schedule(knots::dlsim::DlSchedView& view) {
  spans_.begin(Layer::kDlSchedule, view.now());
  ForwardingDlScheduler::schedule(view);
  spans_.end();
}

SimTime TimedDlScheduler::serve_query(knots::dlsim::DlSchedView& view,
                                      const knots::dlsim::DliQuery& query) {
  spans_.begin(Layer::kDlQuery, view.now());
  const SimTime latency = ForwardingDlScheduler::serve_query(view, query);
  spans_.end();
  return latency;
}

void TimedDlScheduler::on_node_down(SchedulingContext& ctx, NodeId node) {
  spans_.begin(Layer::kDlSchedule, ctx.now);
  ForwardingDlScheduler::on_node_down(ctx, node);
  spans_.end();
}

void TimedDlScheduler::on_node_up(SchedulingContext& ctx, NodeId node) {
  spans_.begin(Layer::kDlSchedule, ctx.now);
  ForwardingDlScheduler::on_node_up(ctx, node);
  spans_.end();
}

void TimedDlScheduler::on_telemetry_stale(SchedulingContext& ctx,
                                          GpuId gpu) {
  spans_.begin(Layer::kDlSchedule, ctx.now);
  ForwardingDlScheduler::on_telemetry_stale(ctx, gpu);
  spans_.end();
}

void OccupancySampler::schedule(knots::dlsim::DlSchedView& view) {
  ForwardingDlScheduler::schedule(view);
  gpus_ = view.gpu_count();
  std::size_t busy = 0;
  for (std::size_t g = 0; g < gpus_; ++g) {
    if (view.load(g) > 0) ++busy;
  }
  if (rounds_with_busy_.size() <= gpus_) rounds_with_busy_.resize(gpus_ + 1);
  ++rounds_with_busy_[busy];
}

double OccupancySampler::median_busy_pct() const {
  std::uint64_t rounds = 0;
  for (const std::uint64_t n : rounds_with_busy_) rounds += n;
  std::uint64_t seen = 0;
  for (std::size_t busy = 0; busy < rounds_with_busy_.size(); ++busy) {
    seen += rounds_with_busy_[busy];
    if (2 * seen >= rounds) {  // lower median
      return 100.0 * static_cast<double>(busy) / static_cast<double>(gpus_);
    }
  }
  return 0.0;
}

}  // namespace perfbench
