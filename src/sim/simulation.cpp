#include "sim/simulation.hpp"

#include <memory>
#include <type_traits>
#include <utility>

#include "obs/profile.hpp"

namespace knots::sim {

std::uint64_t Simulation::schedule_at(SimTime t, Handler fn) {
  KNOTS_CHECK_MSG(t >= now_, "cannot schedule into the past");
  return queue_.schedule(t, std::move(fn));
}

void Simulation::replay_sorted(std::size_t n,
                               std::function<SimTime(std::size_t)> time_of,
                               std::function<void(std::size_t)> fire) {
  if (n == 0) return;
  Replay& r = replays_.emplace_back(Replay{
      this, std::move(time_of), std::move(fire), queue_.reserve_seqs(n), n});
  const SimTime first = r.time_of(0);
  KNOTS_CHECK_MSG(first >= now_, "cannot schedule into the past");
  schedule_entry(r, 0, first);
}

void Simulation::schedule_entry(Replay& r, std::size_t k, SimTime t) {
  // The queued handler: a pointer and an index, which std::function stores
  // in place, so replaying an entry allocates nothing.
  struct Entry {
    Replay* replay;
    std::size_t k;
    void operator()() const {
      // Queue the next entry before this one runs, as if the whole table
      // were queued. Its key follows this entry's, which follows every key
      // popped so far, as schedule_reserved requires.
      Simulation& sim = *replay->sim;
      if (k + 1 < replay->n) {
        const SimTime next = replay->time_of(k + 1);
        KNOTS_CHECK_MSG(next >= sim.now_, "replayed table is not sorted");
        sim.schedule_entry(*replay, k + 1, next);
      }
      replay->fire(k);
    }
  };
  static_assert(sizeof(Entry) <= 2 * sizeof(void*) &&
                std::is_trivially_copyable_v<Entry>);
  queue_.schedule_reserved(t, r.base_seq + k, Entry{&r, k});
}

void Simulation::run_until(SimTime end) {
  stop_requested_ = false;
  SimTime t = 0;
  while (!stop_requested_ && queue_.peek_time(t)) {
    if (t > end) break;
    Handler fn;
    queue_.pop(t, fn);
    KNOTS_CHECK_MSG(t >= now_, "event time moved backwards");
    now_ = t;
    ++processed_;
    {
      KNOTS_PROF_SCOPE(dispatch_profile_);
      fn();
    }
  }
  if (now_ < end) now_ = end;
}

void Simulation::run_all() {
  stop_requested_ = false;
  SimTime t = 0;
  Handler fn;
  while (!stop_requested_ && queue_.pop(t, fn)) {
    KNOTS_CHECK_MSG(t >= now_, "event time moved backwards");
    now_ = t;
    ++processed_;
    {
      KNOTS_PROF_SCOPE(dispatch_profile_);
      fn();
    }
    fn = nullptr;
  }
}

void schedule_periodic(Simulation& sim, SimTime first, SimTime period,
                       std::function<bool(SimTime)> fn) {
  KNOTS_CHECK(period > 0);
  auto shared = std::make_shared<std::function<bool(SimTime)>>(std::move(fn));
  // Self-rescheduling closure; stops when the callback returns false. The
  // stored function holds only a weak self-reference — each *queued* event
  // owns a strong one — so the closure is freed once no event references
  // it, instead of leaking through a shared_ptr cycle.
  auto step = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_step = step;
  *step = [&sim, period, shared, weak_step] {
    if ((*shared)(sim.now())) {
      if (auto strong = weak_step.lock()) {
        sim.schedule_after(period, [strong] { (*strong)(); });
      }
    }
  };
  sim.schedule_at(first, [step] { (*step)(); });
}

}  // namespace knots::sim
