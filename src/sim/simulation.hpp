// Deterministic discrete-event simulation engine.
//
// Events fire in (time, insertion-sequence) order, so same-timestamp events
// run FIFO and every run with the same inputs replays identically. Storage
// is a two-level calendar queue (see event_queue.hpp) with the same
// ordering contract as the binary heap it replaced.
//
// A table of events already sorted by time (a workload's pod arrivals, a
// service's request arrivals) is replayed rather than scheduled:
// replay_sorted keeps one of its entries queued, so the queue holds one
// event per table instead of one per entry, and pop order is the same as
// if the whole table had been scheduled at once.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "core/check.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace knots::sim {

class Simulation {
 public:
  using Handler = std::function<void()>;

  Simulation() = default;
  /// Queued handlers point into the simulation (replayed tables, periodic
  /// chains), so it stays where it was built.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }

  /// Schedules `fn` at absolute simulated time `t` (must not be in the
  /// past). Returns an id accepted by cancel().
  std::uint64_t schedule_at(SimTime t, Handler fn);

  /// Schedules `fn` `dt` after the current time.
  std::uint64_t schedule_after(SimTime dt, Handler fn) {
    KNOTS_CHECK(dt >= 0);
    return schedule_at(now_ + dt, std::move(fn));
  }

  /// Replays a table of `n` events whose times never decrease: entry k
  /// calls `fire(k)` at `time_of(k)`. A block of n sequence numbers is
  /// reserved now and entry k pops under the k-th, the key it would have
  /// had if the n entries were scheduled here one after another, but only
  /// one entry is queued at a time: entry k + 1 is scheduled when entry k
  /// fires, with no allocation. `time_of(0)` must not be in the past, and
  /// an entry earlier than the one before it aborts. Replayed entries
  /// cannot be canceled; the table must outlive the run.
  void replay_sorted(std::size_t n,
                     std::function<SimTime(std::size_t)> time_of,
                     std::function<void(std::size_t)> fire);

  /// Cancels a *pending* event by the id schedule_at/schedule_after
  /// returned. Canceling an event that already fired or was already
  /// canceled is a caller error (see EventQueue::cancel).
  void cancel(std::uint64_t id) { queue_.cancel(id); }

  /// Runs until the queue drains or the next event is past `end`.
  /// Advances `now()` to `end` when stopping on the time bound.
  void run_until(SimTime end);

  /// Runs until the queue drains completely.
  void run_all();

  /// Requests an orderly stop: the current run_* call returns after the
  /// in-flight event completes.
  void request_stop() noexcept { stop_requested_ = true; }

  /// Profiles each event dispatch (handler wall time, ns) into `hist`.
  /// Pass nullptr to detach. Observation only — never affects ordering.
  void set_dispatch_profile(obs::Histogram* hist) noexcept {
    dispatch_profile_ = hist;
  }

 private:
  struct Replay {
    Simulation* sim;
    std::function<SimTime(std::size_t)> time_of;
    std::function<void(std::size_t)> fire;
    std::uint64_t base_seq = 0;
    std::size_t n = 0;
  };
  /// Queues entry `k` of `r` at `t` under its reserved sequence number.
  void schedule_entry(Replay& r, std::size_t k, SimTime t);

  EventQueue queue_;
  std::deque<Replay> replays_;  ///< Stable addresses for queued entries.
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  bool stop_requested_ = false;
  obs::Histogram* dispatch_profile_ = nullptr;
};

/// Repeating tick helper: invokes `fn(now)` every `period` until it returns
/// false or the simulation stops scheduling.
void schedule_periodic(Simulation& sim, SimTime first, SimTime period,
                       std::function<bool(SimTime)> fn);

}  // namespace knots::sim
