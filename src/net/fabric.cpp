#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "core/check.hpp"
#include "fault/fault_plan.hpp"
#include "gpu/gpu_device.hpp"
#include "obs/trace.hpp"

namespace knots::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Residual bytes below this are treated as delivered (float dust from
/// rate * elapsed subtraction).
constexpr double kEpsMb = 1e-9;

// auto_derive's 40 G ToR uplinks and per-hop latency (microseconds).
constexpr double kTorUplinkMbPerS = 5000.0;
constexpr SimTime kLinkLatency = 50;

/// Smallest whole-microsecond duration in which `rate` MB/s delivers
/// `remaining` MB. Exact when the division lands on an integer tick, so
/// doubling every capacity exactly halves every transfer time (the pinned
/// ×2 metamorphic law).
SimTime xfer_usec(double remaining, double rate) {
  const double secs = remaining / rate;
  SimTime t = from_seconds(secs);
  if (remaining - rate * to_seconds(t) > kEpsMb) ++t;
  return t;
}

}  // namespace

std::string_view to_string(LinkKind kind) noexcept {
  switch (kind) {
    case LinkKind::kNvlink: return "nvlink";
    case LinkKind::kPcie: return "pcie";
    case LinkKind::kNodeUplink: return "node-uplink";
    case LinkKind::kTorUplink: return "tor-uplink";
    case LinkKind::kSpine: return "spine";
  }
  return "unknown";
}

std::string_view to_string(FlowKind kind) noexcept {
  switch (kind) {
    case FlowKind::kImagePull: return "image-pull";
    case FlowKind::kMigration: return "migration";
    case FlowKind::kAllReduce: return "all-reduce";
    case FlowKind::kScrape: return "scrape";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// FabricPlan

FabricPlan& FabricPlan::spine(std::string name, double mb_per_s,
                              SimTime latency) {
  links.push_back({std::move(name), LinkKind::kSpine, mb_per_s, latency,
                   -1, -1});
  return *this;
}

FabricPlan& FabricPlan::tor_uplink(int tor, std::string name, double mb_per_s,
                                   SimTime latency) {
  links.push_back({std::move(name), LinkKind::kTorUplink, mb_per_s, latency,
                   -1, tor});
  return *this;
}

FabricPlan& FabricPlan::node_uplink(int node, std::string name,
                                    double mb_per_s, SimTime latency) {
  links.push_back({std::move(name), LinkKind::kNodeUplink, mb_per_s, latency,
                   node, -1});
  return *this;
}

FabricPlan& FabricPlan::intra_node(int node, LinkKind kind, std::string name,
                                   double mb_per_s, SimTime latency) {
  KNOTS_CHECK_MSG(kind == LinkKind::kNvlink || kind == LinkKind::kPcie,
                  "intra-node links must be NVLink or PCIe");
  links.push_back({std::move(name), kind, mb_per_s, latency, node, -1});
  return *this;
}

FabricPlan& FabricPlan::assign_tor(int node, int tor) {
  KNOTS_CHECK(node >= 0 && tor >= 0);
  if (static_cast<std::size_t>(node) >= tor_assignment.size()) {
    tor_assignment.resize(static_cast<std::size_t>(node) + 1, 0);
  }
  tor_assignment[static_cast<std::size_t>(node)] = tor;
  return *this;
}

FabricPlan& FabricPlan::telemetry_reserve(double mb_per_s) {
  telemetry_reserve_mb_per_s = mb_per_s;
  return *this;
}

bool FabricPlan::has_link(std::string_view name) const {
  return std::any_of(links.begin(), links.end(),
                     [&](const LinkSpec& l) { return l.name == name; });
}

std::vector<std::string> FabricPlan::link_names() const {
  std::vector<std::string> names;
  names.reserve(links.size());
  for (const LinkSpec& l : links) names.push_back(l.name);
  return names;
}

FabricPlan& FabricPlan::scale_bandwidth(double factor) {
  KNOTS_CHECK(factor > 0);
  for (LinkSpec& l : links) {
    if (l.mb_per_s > 0) l.mb_per_s *= factor;
  }
  return *this;
}

void FabricPlan::validate(int node_count) const {
  std::set<std::string_view> names;
  std::set<int> node_uplinks;
  std::set<int> intra_links;
  std::set<int> tor_uplinks;
  for (const LinkSpec& l : links) {
    KNOTS_CHECK_MSG(!l.name.empty(), "fabric link needs a name");
    KNOTS_CHECK_MSG(names.insert(l.name).second, "duplicate fabric link name");
    KNOTS_CHECK_MSG(l.latency >= 0, "negative link latency");
    switch (l.kind) {
      case LinkKind::kNvlink:
      case LinkKind::kPcie:
        KNOTS_CHECK_MSG(l.node >= 0 && l.node < node_count,
                        "intra-node link owner outside the cluster");
        KNOTS_CHECK_MSG(intra_links.insert(l.node).second,
                        "node has two intra-node links");
        break;
      case LinkKind::kNodeUplink:
        KNOTS_CHECK_MSG(l.node >= 0 && l.node < node_count,
                        "node uplink owner outside the cluster");
        KNOTS_CHECK_MSG(node_uplinks.insert(l.node).second,
                        "node has two uplinks");
        break;
      case LinkKind::kTorUplink:
        KNOTS_CHECK_MSG(l.tor >= 0, "ToR uplink needs a ToR index");
        KNOTS_CHECK_MSG(tor_uplinks.insert(l.tor).second,
                        "ToR has two uplinks");
        break;
      case LinkKind::kSpine:
        break;
    }
  }
  KNOTS_CHECK_MSG(tor_assignment.size() <=
                      static_cast<std::size_t>(node_count),
                  "ToR assignment names a node outside the cluster");
  for (const int tor : tor_assignment) {
    KNOTS_CHECK_MSG(tor >= 0, "negative ToR assignment");
  }
  KNOTS_CHECK_MSG(telemetry_reserve_mb_per_s >= 0,
                  "negative telemetry reserve");
}

FabricPlan FabricPlan::auto_derive(int node_count,
                                   const AutoFabricOptions& options) {
  KNOTS_CHECK(node_count > 0 && options.nodes_per_tor > 0);
  const double intra = options.intra_node_mb_per_s > 0
                           ? options.intra_node_mb_per_s
                           : gpu::GpuSpec{}.nvlink_mbps;
  FabricPlan plan;
  plan.spine("spine", options.spine_mb_per_s, kLinkLatency);
  const int tors =
      (node_count + options.nodes_per_tor - 1) / options.nodes_per_tor;
  for (int t = 0; t < tors; ++t) {
    plan.tor_uplink(t, "tor" + std::to_string(t) + "-up", kTorUplinkMbPerS,
                    kLinkLatency);
  }
  for (int n = 0; n < node_count; ++n) {
    plan.node_uplink(n, "n" + std::to_string(n) + "-up",
                     options.node_uplink_mb_per_s, kLinkLatency);
    plan.intra_node(n, LinkKind::kNvlink, "n" + std::to_string(n) + "-nvl",
                    intra, 0);
    plan.assign_tor(n, n / options.nodes_per_tor);
  }
  plan.telemetry_reserve(options.telemetry_reserve_mb_per_s);
  return plan;
}

FabricPlan FabricPlan::zero_latency(int node_count, int nodes_per_tor) {
  KNOTS_CHECK(node_count > 0 && nodes_per_tor > 0);
  // Same shape as auto_derive, but every link unlimited at zero latency:
  // the canonical inert fabric.
  FabricPlan plan;
  plan.spine("spine", 0.0, 0);
  const int tors = (node_count + nodes_per_tor - 1) / nodes_per_tor;
  for (int t = 0; t < tors; ++t) {
    plan.tor_uplink(t, "tor" + std::to_string(t) + "-up", 0.0, 0);
  }
  for (int n = 0; n < node_count; ++n) {
    plan.node_uplink(n, "n" + std::to_string(n) + "-up", 0.0, 0);
    plan.intra_node(n, LinkKind::kNvlink, "n" + std::to_string(n) + "-nvl",
                    0.0, 0);
    plan.assign_tor(n, n / nodes_per_tor);
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Fabric

Fabric::Fabric(const FabricPlan& plan, int node_count)
    : node_count_(node_count), telemetry_reserve_(plan.telemetry_reserve_mb_per_s) {
  KNOTS_CHECK(node_count > 0);
  plan.validate(node_count);
  specs_ = plan.links;
  // Canonical order: sorted by (unique) name, so permuting the plan's
  // declaration order changes nothing observable — link indices, routes,
  // digests all come out identical.
  std::sort(specs_.begin(), specs_.end(),
            [](const LinkSpec& a, const LinkSpec& b) { return a.name < b.name; });
  states_.assign(specs_.size(), LinkState{});

  tor_of_node_.assign(static_cast<std::size_t>(node_count), 0);
  for (std::size_t n = 0; n < plan.tor_assignment.size(); ++n) {
    tor_of_node_[n] = plan.tor_assignment[n];
  }
  int max_tor = 0;
  for (const int t : tor_of_node_) max_tor = std::max(max_tor, t);
  for (const LinkSpec& l : specs_) {
    if (l.kind == LinkKind::kTorUplink) max_tor = std::max(max_tor, l.tor);
  }
  tors_ = max_tor + 1;

  node_uplink_.assign(static_cast<std::size_t>(node_count), -1);
  intra_link_.assign(static_cast<std::size_t>(node_count), -1);
  tor_uplink_.assign(static_cast<std::size_t>(tors_), -1);
  inert_ = true;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const LinkSpec& l = specs_[i];
    if (l.mb_per_s > 0 || l.latency > 0) inert_ = false;
    switch (l.kind) {
      case LinkKind::kNvlink:
      case LinkKind::kPcie:
        intra_link_[static_cast<std::size_t>(l.node)] = static_cast<int>(i);
        break;
      case LinkKind::kNodeUplink:
        node_uplink_[static_cast<std::size_t>(l.node)] = static_cast<int>(i);
        break;
      case LinkKind::kTorUplink:
        tor_uplink_[static_cast<std::size_t>(l.tor)] = static_cast<int>(i);
        break;
      case LinkKind::kSpine:
        // Routes traverse only the lexicographically-first spine link;
        // further spine declarations are inert by construction.
        if (spine_ < 0) spine_ = static_cast<int>(i);
        break;
    }
  }
}

int Fabric::tor_of(int node) const {
  KNOTS_CHECK(node >= 0 && node < node_count_);
  return tor_of_node_[static_cast<std::size_t>(node)];
}

std::optional<std::size_t> Fabric::link_index(std::string_view name) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].name == name) return i;
  }
  return std::nullopt;
}

std::vector<std::string> Fabric::link_names() const {
  std::vector<std::string> names;
  names.reserve(specs_.size());
  for (const LinkSpec& l : specs_) names.push_back(l.name);
  return names;
}

std::vector<int> Fabric::route(int src, int dst) const {
  std::vector<int> r;
  const auto push = [&](int idx) {
    if (idx >= 0) r.push_back(idx);
  };
  const auto up = [&](int node) {
    return node_uplink_[static_cast<std::size_t>(node)];
  };
  const auto tor_up = [&](int node) {
    return tor_uplink_[static_cast<std::size_t>(tor_of(node))];
  };
  if (src == kRegistry && dst == kRegistry) return r;
  if (src == kRegistry) {
    KNOTS_CHECK(dst >= 0 && dst < node_count_);
    push(spine_);
    push(tor_up(dst));
    push(up(dst));
    return r;
  }
  if (dst == kRegistry) {
    KNOTS_CHECK(src >= 0 && src < node_count_);
    push(up(src));
    push(tor_up(src));
    push(spine_);
    return r;
  }
  KNOTS_CHECK(src >= 0 && src < node_count_ && dst >= 0 && dst < node_count_);
  if (src == dst) {
    push(intra_link_[static_cast<std::size_t>(src)]);
    return r;
  }
  push(up(src));
  if (tor_of(src) != tor_of(dst)) {
    push(tor_up(src));
    push(spine_);
    push(tor_up(dst));
  }
  push(up(dst));
  return r;
}

std::vector<int> Fabric::gang_route(const std::vector<int>& nodes) const {
  std::vector<int> distinct = nodes;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<int> r;
  if (distinct.empty()) return r;
  if (distinct.size() == 1) {
    const int intra = intra_link_[static_cast<std::size_t>(distinct[0])];
    if (intra >= 0) r.push_back(intra);
    return r;
  }
  std::set<int> tors;
  for (const int n : distinct) {
    KNOTS_CHECK(n >= 0 && n < node_count_);
    const int uplink = node_uplink_[static_cast<std::size_t>(n)];
    if (uplink >= 0) r.push_back(uplink);
    tors.insert(tor_of(n));
  }
  if (tors.size() > 1) {
    for (const int t : tors) {
      const int uplink = tor_uplink_[static_cast<std::size_t>(t)];
      if (uplink >= 0) r.push_back(uplink);
    }
    if (spine_ >= 0) r.push_back(spine_);
  }
  std::sort(r.begin(), r.end());
  r.erase(std::unique(r.begin(), r.end()), r.end());
  return r;
}

SimTime Fabric::route_latency(const std::vector<int>& links) const {
  SimTime total = 0;
  for (const int l : links) total += specs_[static_cast<std::size_t>(l)].latency;
  return total;
}

double Fabric::path_capacity(const std::vector<int>& links) const {
  double cap = kInf;
  for (const int l : links) {
    cap = std::min(cap, effective_capacity(static_cast<std::size_t>(l)));
  }
  return cap;
}

double Fabric::effective_capacity(std::size_t link) const {
  KNOTS_CHECK(link < specs_.size());
  const LinkSpec& spec = specs_[link];
  const LinkState& state = states_[link];
  if (!state.up) return 0.0;
  if (spec.mb_per_s <= 0) return kInf;
  double cap = spec.mb_per_s;
  if (spec.kind == LinkKind::kNodeUplink && telemetry_reserve_ > 0) {
    // The scrape keeps a slice of every access link; it can squeeze but
    // never fully starve foreground flows.
    cap = std::max(cap - telemetry_reserve_, 0.05 * spec.mb_per_s);
  }
  return cap / state.slowdown;
}

std::uint64_t Fabric::start_flow(FlowKind kind, int src, int dst, double mb,
                                 FinishFn on_finish) {
  KNOTS_CHECK_MSG(sim_ != nullptr, "Fabric::start_flow requires bind()");
  const SimTime now = sim_->now();
  advance(now);
  Flow flow;
  flow.id = next_flow_id_++;
  flow.kind = kind;
  flow.src = src;
  flow.dst = dst;
  flow.size_mb = std::max(0.0, mb);
  flow.remaining_mb = flow.size_mb;
  flow.links = route(src, dst);
  flow.gate = now + route_latency(flow.links);
  flow.done = std::move(on_finish);
  const std::uint64_t id = flow.id;
  flows_.push_back(std::move(flow));
  ++stats_.flows_started;
  if (observer_ != nullptr) {
    observer_->on_flow_start(id, kind, src, dst, std::max(0.0, mb), now);
  }
  recompute_rates();
  reschedule(now);
  return id;
}

SimTime Fabric::transfer_time(int src, int dst, double mb) const {
  const std::vector<int> r = route(src, dst);
  const SimTime latency = route_latency(r);
  if (mb <= 0) return latency;
  const double cap = path_capacity(r);
  if (cap == 0.0) return kNever;
  if (cap == kInf) return latency;
  return latency + xfer_usec(mb, cap);
}

std::vector<double> Fabric::stream_rates(
    const std::vector<std::vector<int>>& routes) const {
  std::vector<FlowDemand> demands;
  demands.reserve(routes.size());
  for (const auto& r : routes) demands.push_back(FlowDemand{r});
  std::vector<double> caps(specs_.size());
  for (std::size_t l = 0; l < specs_.size(); ++l) {
    caps[l] = effective_capacity(l);
  }
  return fair_share(demands, caps);
}

void Fabric::set_link_down(std::size_t link) {
  KNOTS_CHECK(link < states_.size());
  if (!states_[link].up) return;
  states_[link].up = false;
  link_state_changed(link, false);
}

void Fabric::set_link_up(std::size_t link) {
  KNOTS_CHECK(link < states_.size());
  if (states_[link].up) return;
  states_[link].up = true;
  link_state_changed(link, true);
}

void Fabric::degrade_link(std::size_t link, double slowdown) {
  KNOTS_CHECK(link < states_.size());
  KNOTS_CHECK_MSG(slowdown >= 1.0, "link degrade slowdown must be >= 1");
  states_[link].slowdown = std::max(states_[link].slowdown, slowdown);
  link_state_changed(link, false);
}

void Fabric::restore_link(std::size_t link) {
  KNOTS_CHECK(link < states_.size());
  if (states_[link].slowdown == 1.0 && states_[link].up) return;
  states_[link].slowdown = 1.0;
  states_[link].up = true;
  link_state_changed(link, true);
}

bool Fabric::link_up(std::size_t link) const {
  KNOTS_CHECK(link < states_.size());
  return states_[link].up;
}

void Fabric::apply_link_fault(const fault::FaultEvent& event,
                              obs::TraceSink* trace) {
  KNOTS_CHECK_MSG(sim_ != nullptr, "Fabric::apply_link_fault requires bind()");
  const auto link = link_index(event.link);
  KNOTS_CHECK_MSG(link.has_value(), "link fault names an unknown link");
  const bool hard = event.kind == fault::FaultKind::kLinkDown;
  KNOTS_CHECK_MSG(hard || event.kind == fault::FaultKind::kLinkDegrade,
                  "apply_link_fault takes link faults only");
  if (hard) {
    set_link_down(*link);
  } else {
    degrade_link(*link, event.severity);
  }
  if (event.duration <= 0) return;
  sim_->schedule_after(
      event.duration, [this, trace, l = *link, hard, kind = event.kind] {
        if (hard) {
          set_link_up(l);
        } else {
          restore_link(l);
        }
        if (trace != nullptr) {
          trace->record(sim_->now(), obs::EventKind::kFaultRecover,
                        static_cast<std::int32_t>(l), -1, 0.0,
                        fault::to_string(kind));
        }
      });
}

void Fabric::link_state_changed(std::size_t link, bool up) {
  ++stats_.link_events;
  SimTime now = 0;
  if (sim_ != nullptr) {
    now = sim_->now();
    advance(now);
    recompute_rates();
    reschedule(now);
  }
  if (observer_ != nullptr) observer_->on_link_state(link, up, now);
}

void Fabric::advance(SimTime now) {
  if (now <= last_advance_) return;
  for (Flow& f : flows_) {
    if (f.remaining_mb <= 0) continue;
    const SimTime from = std::max(last_advance_, f.gate);
    if (now <= from) continue;
    if (std::isinf(f.rate)) {
      f.remaining_mb = 0;
      continue;
    }
    f.remaining_mb =
        std::max(0.0, f.remaining_mb - f.rate * to_seconds(now - from));
  }
  last_advance_ = now;
}

void Fabric::recompute_rates() {
  if (flows_.empty()) return;
  std::vector<FlowDemand> demands;
  demands.reserve(flows_.size());
  for (const Flow& f : flows_) demands.push_back(FlowDemand{f.links});
  std::vector<double> caps(specs_.size());
  for (std::size_t l = 0; l < specs_.size(); ++l) {
    caps[l] = effective_capacity(l);
  }
  const std::vector<double> rates = fair_share(demands, caps);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    f.rate = rates[i];
    // A flow is contended when sharing pushed it below its own path's
    // bottleneck capacity (a downed path is stalled, not contended).
    if (!std::isinf(f.rate) && f.rate + kEpsMb < path_capacity(f.links)) {
      f.contended = true;
    }
  }
}

void Fabric::reschedule(SimTime now) {
  if (timer_armed_) {
    sim_->cancel(timer_id_);
    timer_armed_ = false;
  }
  SimTime next = kNever;
  for (const Flow& f : flows_) {
    SimTime t = 0;
    if (f.remaining_mb <= kEpsMb || std::isinf(f.rate)) {
      t = std::max(now, f.gate);
    } else if (f.rate <= 0) {
      continue;  // stalled on a downed link; a state change re-arms us
    } else {
      t = std::max(now, f.gate) + xfer_usec(f.remaining_mb, f.rate);
    }
    next = std::min(next, t);
  }
  if (next == kNever) return;
  timer_id_ = sim_->schedule_at(std::max(next, now), [this] {
    timer_armed_ = false;
    on_timer();
  });
  timer_armed_ = true;
}

void Fabric::on_timer() {
  const SimTime now = sim_->now();
  advance(now);
  // An unconstrained flow delivers instantaneously once its latency gate
  // opens; advance() can miss it when the gate IS the timer instant (there
  // is no elapsed interval to integrate over), which would re-arm a timer
  // at `now` forever.
  for (Flow& f : flows_) {
    if (std::isinf(f.rate) && now >= f.gate) f.remaining_mb = 0;
  }
  std::vector<Flow> finished;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    if (f.remaining_mb <= kEpsMb && now >= f.gate) {
      finished.push_back(std::move(f));
    } else {
      if (keep != i) flows_[keep] = std::move(f);
      ++keep;
    }
  }
  flows_.resize(keep);
  for (const Flow& f : finished) {
    ++stats_.flows_finished;
    if (f.contended) ++stats_.flows_contended;
    stats_.mb_transferred += f.size_mb;
    if (observer_ != nullptr) {
      observer_->on_flow_finish(f.id, f.kind, f.contended, now);
    }
  }
  recompute_rates();
  reschedule(now);
  // Callbacks run last: they may start new flows reentrantly, which
  // re-advances and re-arms the timer on top of a consistent state.
  for (Flow& f : finished) {
    if (f.done) f.done(now);
  }
}

}  // namespace knots::net
