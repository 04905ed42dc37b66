// Topology-aware datacenter fabric: shared links, deterministic fair-share
// contention, and fluid flows on the discrete-event engine.
//
// The model is a two-tier Clos sketch of the paper's testbed network:
// every node hangs off a ToR switch through a node uplink, every ToR hangs
// off one shared spine link, and each node optionally has an intra-node
// NVLink/PCIe link for GPU-to-GPU traffic that never leaves the host. The
// container image registry sits at the spine, so a cold image pull crosses
// the spine, the destination ToR's uplink and the node's access link.
//
// `FabricPlan` is the declarative description (fluent builder + validate);
// `Fabric` is the live object. Link declaration order is irrelevant by
// construction: the fabric canonicalizes by sorting links on their unique
// names, so permuting the plan is digest-invariant (a pinned metamorphic
// law). When several spine links are declared, routes traverse only the
// lexicographically-first one — extra spine links are provably inert.
//
// Transfers are fluid flows: each active flow gets the max-min fair share
// of its path (net::fair_share) and rates are recomputed only on flow
// arrival, flow completion, and link-state changes, with the single
// earliest predicted completion scheduled on the bound sim::Simulation.
// Everything runs from the event loop in (time, insertion-seq) order, so
// identical runs replay fabric behaviour bit for bit.
//
// Inertness law: a fabric whose links are all unlimited (mb_per_s <= 0)
// with zero latency reports inert(); charge sites (image pulls, gang
// all-reduce, migration) skip inert fabrics entirely — no flow, no digest
// record, no event — so such a run reproduces the fabric-free goldens
// bit-for-bit.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.hpp"
#include "net/fair_share.hpp"
#include "sim/simulation.hpp"

namespace knots::fault {
struct FaultEvent;
}
namespace knots::obs {
class TraceSink;
}

namespace knots::net {

enum class LinkKind {
  kNvlink,      ///< Intra-node GPU interconnect.
  kPcie,        ///< Intra-node host<->device lanes.
  kNodeUplink,  ///< Node -> ToR access link.
  kTorUplink,   ///< ToR -> spine uplink.
  kSpine,       ///< Shared core backplane.
};

[[nodiscard]] std::string_view to_string(LinkKind kind) noexcept;

struct LinkSpec {
  std::string name;
  LinkKind kind = LinkKind::kNodeUplink;
  double mb_per_s = 0.0;  ///< Capacity; <= 0 means unlimited.
  SimTime latency = 0;    ///< Per-traversal latency (setup/propagation).
  int node = -1;          ///< Owner for kNvlink/kPcie/kNodeUplink.
  int tor = -1;           ///< Owner for kTorUplink.

  bool operator==(const LinkSpec&) const = default;
};

/// Knobs for the auto-derived default topology (paper-ish numbers:
/// 10 GbE access, a fat shared spine, NVLink-class intra-node bandwidth
/// taken from gpu::GpuSpec). ToR uplinks are 40 G and every fabric hop
/// costs 50 µs.
struct AutoFabricOptions {
  int nodes_per_tor = 8;
  double node_uplink_mb_per_s = 1250.0;
  double spine_mb_per_s = 40000.0;
  /// <= 0 resolves to gpu::GpuSpec{}.nvlink_mb_per_s.
  double intra_node_mb_per_s = 0.0;
  double telemetry_reserve_mb_per_s = 1.0;
};

/// Declarative fabric description. An empty plan means "no fabric".
struct FabricPlan {
  std::vector<LinkSpec> links;
  /// node -> ToR; nodes beyond the vector default to ToR 0.
  std::vector<int> tor_assignment;
  /// Static background bandwidth the telemetry scrape reserves on every
  /// finite node uplink (the Prometheus pull cost of §IV-A).
  double telemetry_reserve_mb_per_s = 0.0;

  [[nodiscard]] bool empty() const noexcept { return links.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return links.size(); }

  // -- Fluent builders --
  FabricPlan& spine(std::string name, double mb_per_s, SimTime latency = 0);
  FabricPlan& tor_uplink(int tor, std::string name, double mb_per_s,
                         SimTime latency = 0);
  FabricPlan& node_uplink(int node, std::string name, double mb_per_s,
                          SimTime latency = 0);
  FabricPlan& intra_node(int node, LinkKind kind, std::string name,
                         double mb_per_s, SimTime latency = 0);
  FabricPlan& assign_tor(int node, int tor);
  FabricPlan& telemetry_reserve(double mb_per_s);

  [[nodiscard]] bool has_link(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> link_names() const;

  /// Multiplies every finite link capacity by `factor` (metamorphic
  /// bandwidth-scaling law harness). Unlimited links stay unlimited.
  FabricPlan& scale_bandwidth(double factor);

  /// Aborts (KNOTS_CHECK) on duplicate/empty link names, owners outside
  /// [0, node_count), negative latencies, bad ToR assignments, or more
  /// than one uplink/intra link per owner.
  void validate(int node_count) const;

  /// Default contended topology: nodes grouped onto ToRs, one spine, one
  /// uplink and one NVLink per node.
  [[nodiscard]] static FabricPlan auto_derive(
      int node_count, const AutoFabricOptions& options = {});

  /// Same shape as auto_derive but every link unlimited with zero latency
  /// — a provably inert fabric (the inertness-law fixture).
  [[nodiscard]] static FabricPlan zero_latency(int node_count,
                                               int nodes_per_tor = 8);

  bool operator==(const FabricPlan&) const = default;
};

enum class FlowKind {
  kImagePull,  ///< Registry -> node container image pull.
  kMigration,  ///< Checkpoint transfer for a job/pod migration.
  kAllReduce,  ///< DL gang gradient exchange.
  kScrape,     ///< Telemetry scrape traffic.
};

[[nodiscard]] std::string_view to_string(FlowKind kind) noexcept;

/// Passive fabric observation: flow lifecycle and link-state edges, in the
/// deterministic order the fabric resolves them. `on_link_state(l, false)`
/// covers both hard downs and degrades (any capacity-reducing edge);
/// `up == true` is the matching restoration.
class FabricObserver {
 public:
  virtual ~FabricObserver() = default;
  virtual void on_flow_start(std::uint64_t /*flow*/, FlowKind /*kind*/,
                             int /*src_node*/, int /*dst_node*/,
                             double /*mb*/, SimTime /*now*/) {}
  virtual void on_flow_finish(std::uint64_t /*flow*/, FlowKind /*kind*/,
                              bool /*contended*/, SimTime /*now*/) {}
  virtual void on_link_state(std::size_t /*link*/, bool /*up*/,
                             SimTime /*now*/) {}
};

class Fabric {
 public:
  /// Pseudo-node id for the image registry at the spine.
  static constexpr int kRegistry = -1;
  using FinishFn = std::function<void(SimTime)>;

  /// Validates the plan against `node_count` and canonicalizes it
  /// (links sorted by name).
  Fabric(const FabricPlan& plan, int node_count);

  /// Attaches the event engine flows are scheduled on. Must be called
  /// before start_flow; analytic queries work unbound.
  void bind(sim::Simulation* sim) noexcept { sim_ = sim; }
  void set_observer(FabricObserver* observer) noexcept {
    observer_ = observer;
  }

  [[nodiscard]] bool inert() const noexcept { return inert_; }
  [[nodiscard]] int node_count() const noexcept { return node_count_; }
  [[nodiscard]] int tor_count() const noexcept { return tors_; }
  [[nodiscard]] int tor_of(int node) const;

  /// Links in canonical (name-sorted) order; indices below refer to it.
  [[nodiscard]] const std::vector<LinkSpec>& links() const noexcept {
    return specs_;
  }
  [[nodiscard]] std::optional<std::size_t> link_index(
      std::string_view name) const;
  [[nodiscard]] std::vector<std::string> link_names() const;

  // -- Routing --
  /// Ordered link indices from `src_node` to `dst_node` (kRegistry pulls
  /// from the registry at the spine). Links a plan never declared simply
  /// don't appear; an empty route is a free path.
  [[nodiscard]] std::vector<int> route(int src_node, int dst_node) const;
  /// Shared-link set a gang spanning `nodes` stresses every step: each
  /// node's uplink, plus the ToR uplinks and spine when it crosses ToRs.
  /// Sorted, deduplicated. Single-node gangs return the intra-node link.
  [[nodiscard]] std::vector<int> gang_route(
      const std::vector<int>& nodes) const;
  [[nodiscard]] SimTime route_latency(const std::vector<int>& links) const;
  /// Current bottleneck capacity of a route (degrades/downs included);
  /// infinity when unconstrained, 0 when a link is down.
  [[nodiscard]] double path_capacity(const std::vector<int>& links) const;

  // -- Flows (requires bind()) --
  std::uint64_t start_flow(FlowKind kind, int src_node, int dst_node,
                           double mb, FinishFn on_finish = {});
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return flows_.size();
  }

  /// Analytic uncontended transfer time for `mb` from src to dst at the
  /// current link state: route latency + size over bottleneck capacity.
  /// kNever when the path is down.
  [[nodiscard]] SimTime transfer_time(int src_node, int dst_node,
                                      double mb) const;
  /// Max-min fair rates for persistent streams over the given routes at
  /// current link state (the dlsim per-step all-reduce query). Pure.
  [[nodiscard]] std::vector<double> stream_rates(
      const std::vector<std::vector<int>>& routes) const;

  // -- Link state (fault wiring) --
  void set_link_down(std::size_t link);
  void set_link_up(std::size_t link);
  /// Divides the link's capacity by `slowdown` (>= 1) until restored.
  void degrade_link(std::size_t link, double slowdown);
  void restore_link(std::size_t link);
  [[nodiscard]] bool link_up(std::size_t link) const;
  [[nodiscard]] double effective_capacity(std::size_t link) const;
  /// Applies a kLinkDown or kLinkDegrade event to its named link (down, or
  /// capacity divided by `severity`). A positive `duration` restores the
  /// link that much later on the bound engine and records a kFaultRecover
  /// on `trace` (null: untraced). Requires bind().
  void apply_link_fault(const fault::FaultEvent& event, obs::TraceSink* trace);

  struct Stats {
    std::uint64_t flows_started = 0;
    std::uint64_t flows_finished = 0;
    std::uint64_t flows_contended = 0;
    std::uint64_t link_events = 0;
    double mb_transferred = 0.0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct LinkState {
    bool up = true;
    double slowdown = 1.0;
  };
  struct Flow {
    std::uint64_t id = 0;
    FlowKind kind = FlowKind::kImagePull;
    int src = kRegistry;
    int dst = 0;
    double size_mb = 0.0;
    double remaining_mb = 0.0;
    double rate = 0.0;  ///< Current fair share, MB/s (may be infinite).
    bool contended = false;
    SimTime gate = 0;  ///< Start + route latency; transfer counts after.
    std::vector<int> links;
    FinishFn done;
  };

  void advance(SimTime now);
  void recompute_rates();
  void reschedule(SimTime now);
  void on_timer();
  /// Shared tail of every link-state mutation: re-shares active flows and
  /// notifies the observer.
  void link_state_changed(std::size_t link, bool up);

  int node_count_ = 0;
  int tors_ = 1;
  bool inert_ = true;
  double telemetry_reserve_ = 0.0;
  std::vector<LinkSpec> specs_;       ///< Canonical order.
  std::vector<LinkState> states_;
  std::vector<int> tor_of_node_;
  std::vector<int> node_uplink_;      ///< node -> link index or -1.
  std::vector<int> intra_link_;       ///< node -> link index or -1.
  std::vector<int> tor_uplink_;       ///< tor -> link index or -1.
  int spine_ = -1;

  sim::Simulation* sim_ = nullptr;
  FabricObserver* observer_ = nullptr;
  std::vector<Flow> flows_;           ///< Insertion order.
  std::uint64_t next_flow_id_ = 1;
  SimTime last_advance_ = 0;
  std::uint64_t timer_id_ = 0;
  bool timer_armed_ = false;
  Stats stats_;
};

}  // namespace knots::net
