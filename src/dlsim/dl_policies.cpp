#include "dlsim/dl_policies.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

#include "core/check.hpp"
#include "sched/registry.hpp"

namespace knots::dlsim {

namespace {
constexpr SimTime kRestartPause = 180 * kSec;  ///< Relaunch after a crash.
constexpr SimTime kMigrationPause = 15 * kSec;  ///< Gandiva migration cost.
constexpr SimTime kPreemptionPause = 30 * kSec;  ///< Tiresias suspend/resume.
/// Tiresias' discretized two-queue LAS: attained service saturates at
/// this cap, so long jobs compete FIFO instead of starving.
constexpr SimTime kLasAttainedCap = 20 * kMinute;
constexpr double kDliBlocking = 2.2;  ///< Latency factor per busy trainer.
/// Tiresias preempts trainers to serve inference most of the time; the
/// rest queue behind the running quantum.
constexpr double kTiresiasDliPriority = 0.80;
}  // namespace

void DlScheduler::on_schedule(cluster::SchedulingContext& ctx) {
  KNOTS_CHECK_MSG(ctx.extension != nullptr,
                  "DL policies schedule through a DlSchedView extension");
  schedule(static_cast<DlSchedView&>(*ctx.extension));
}

std::size_t DlScheduler::random_gpu(DlSchedView& view) {
  return static_cast<std::size_t>(view.rng().uniform_int(
      0, static_cast<std::int64_t>(view.gpu_count()) - 1));
}

void DlScheduler::crash_trainer(DlSchedView& view, std::size_t gpu) {
  const auto& residents = view.residents(gpu);
  if (residents.empty()) return;
  // Progress rolls back to the last checkpoint; the container relaunches
  // and the job rejoins the FCFS queue at the back (§IV-C: relaunched tasks
  // cannot be prioritized over tasks already ahead in the queue).
  view.crash_job(residents.front());
  ++crashes_;
  view.pause_gpu(gpu, view.now() + kRestartPause);
}

// ---------------------------------------------------------------- Res-Ag --

void ResAgDlPolicy::schedule(DlSchedView& view) {
  // Strict FCFS gang placement on exclusive GPUs; the head blocks the rest.
  auto& pending = view.pending();
  while (!pending.empty()) {
    const int head = pending.front();
    auto& job = view.job(head);
    if (!view.place(head, job.gpus, /*max_share=*/1)) break;
    job.running = true;
    pending.erase(pending.begin());
  }
}

SimTime ResAgDlPolicy::serve_query(DlSchedView& view, const DliQuery& query) {
  const DlClusterConfig& cfg = view.config();
  // Blind placement: any GPU, busy or not.
  const std::size_t gpu = random_gpu(view);
  if (view.free(gpu)) return query.base_latency;
  // Blocked behind non-preemptive training kernels…
  SimTime latency = static_cast<SimTime>(
      static_cast<double>(query.base_latency) *
      (1.0 + kDliBlocking * static_cast<double>(view.load(gpu))));
  // …and TF's greedy allocator may blow the device's memory, crashing the
  // co-located trainer and forcing the query itself to relaunch elsewhere.
  if (view.rng().chance(cfg.crash_prob)) {
    crash_trainer(view, gpu);
    latency += kRestartPause / 20 + query.base_latency;  // retry cost
  }
  return latency;
}

// --------------------------------------------------------------- Gandiva --

void GandivaDlPolicy::schedule(DlSchedView& view) {
  const DlClusterConfig& cfg = view.config();
  // Pass 0: de-slice — once a shared trainer outgrows the young threshold,
  // migrate its cohabitant to a free GPU when one exists.
  for (std::size_t g = 0; g < view.gpu_count(); ++g) {
    if (view.load(g) < 2) continue;
    bool has_old = false;
    for (int j : view.residents(g)) {
      if (view.job(j).attained > cfg.slice_young_threshold) has_old = true;
    }
    if (!has_old) continue;
    // Move the youngest single-GPU resident to a free GPU (gangs stay put).
    int mover = -1;
    for (int j : view.residents(g)) {
      const auto& res = view.job(j);
      if (res.placed_gpus.size() != 1) continue;
      if (mover < 0 || res.attained < view.job(mover).attained) mover = j;
    }
    if (mover < 0) continue;
    const std::size_t target = view.first_serviceable_gpu();
    if (target != DlEngine::npos) {
      view.migrate(mover, g, target);
      view.pause_gpu(target, view.now() + kMigrationPause);
      ++migrations_;
    } else {
      // Trial-and-error fallback: suspend the young cohabitant back to the
      // queue so the long trainer regains exclusive access.
      view.requeue(mover);
      ++migrations_;
    }
  }

  // Pass 1: exclusive placement while GPUs are free.
  auto& pending = view.pending();
  while (!pending.empty()) {
    const int head = pending.front();
    auto& job = view.job(head);
    if (!view.place(head, job.gpus, /*max_share=*/1)) break;
    job.running = true;
    pending.erase(pending.begin());
  }
  // Pass 2: introspective oversubscription — when jobs still queue, pack
  // them two-way onto GPUs whose incumbent trainer is still young (long
  // trainers keep exclusive GPUs; GPUs with old incumbents are ineligible).
  auto incumbent_young = [&](std::size_t g) {
    for (int j : view.residents(g)) {
      const auto& res = view.job(j);
      if (res.attained > cfg.slice_young_threshold) return false;
      // Never slice under a gang: one shared member halves the whole gang.
      if (res.gpus > 1) return false;
    }
    return true;
  };
  while (!pending.empty()) {
    const int head = pending.front();
    auto& job = view.job(head);
    if (!view.place(head, job.gpus, /*max_share=*/2, incumbent_young)) break;
    job.running = true;
    pending.erase(pending.begin());
    ++migrations_;
    for (int g : job.placed_gpus) {
      const auto gi = static_cast<std::size_t>(g);
      if (view.load(gi) > 1) {
        view.pause_gpu(gi, view.now() + kMigrationPause);
      }
    }
  }
}

SimTime GandivaDlPolicy::serve_query(DlSchedView& view,
                                     const DliQuery& query) {
  const std::size_t gpu = random_gpu(view);
  const double factor =
      1.0 + kDliBlocking * static_cast<double>(view.load(gpu));
  SimTime latency = static_cast<SimTime>(
      static_cast<double>(query.base_latency) * factor);
  if (!view.free(gpu)) {
    // Time-slice quantum wait: the query queues for the incumbent's slice.
    latency += static_cast<SimTime>(
        view.rng().uniform(0.0, 80.0 * static_cast<double>(kMsec)));
  }
  // A migration in flight on the chosen GPU stalls the query outright.
  if (view.paused_until(gpu) > view.now()) {
    latency += std::min<SimTime>(view.paused_until(gpu) - view.now(),
                                 kMigrationPause);
  }
  return latency;
}

// -------------------------------------------------------------- Tiresias --

void TiresiasDlPolicy::schedule(DlSchedView& view) {
  const DlClusterConfig& cfg = view.config();
  auto& pending = view.pending();
  if (view.now() - last_quantum_ < cfg.quantum) {
    // Between quanta, only fill genuinely free GPUs FCFS (no preemption).
    for (auto it = pending.begin(); it != pending.end();) {
      auto& job = view.job(*it);
      if (view.place(*it, job.gpus, 1)) {
        job.running = true;
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    return;
  }
  last_quantum_ = view.now();

  // Discretized LAS: rank every live job by attained service (least first)
  // and rebuild the allocation greedily; descheduled jobs pay a suspend.
  std::vector<int> live;
  for (const auto& job : view.jobs()) {
    if (!job.done() && job.arrival <= view.now()) live.push_back(job.id);
  }
  // Two-queue discretization: attained service saturates at the cap, so
  // long-running jobs stop losing priority (no starvation) and compete
  // FIFO among themselves.
  std::stable_sort(live.begin(), live.end(), [&](int a, int b) {
    const auto& ja = view.job(a);
    const auto& jb = view.job(b);
    const SimTime ka = std::min(ja.attained, kLasAttainedCap);
    const SimTime kb = std::min(jb.attained, kLasAttainedCap);
    if (ka != kb) return ka < kb;
    return ja.arrival < jb.arrival;
  });

  std::vector<int> previously_running;
  for (auto& job : view.jobs()) {
    if (job.running) previously_running.push_back(job.id);
  }
  for (int id : previously_running) {
    view.evict(id);
    view.job(id).running = false;
  }
  pending.clear();

  for (int id : live) {
    auto& job = view.job(id);
    if (view.place(id, job.gpus, 1)) {
      job.running = true;
      const bool was_running =
          std::find(previously_running.begin(), previously_running.end(),
                    id) != previously_running.end();
      if (!was_running && job.attained > 0) {
        // Resuming a suspended job costs a pause on its GPUs.
        ++preemptions_;
        for (int g : job.placed_gpus) {
          view.pause_gpu(static_cast<std::size_t>(g),
                         view.now() + kPreemptionPause);
        }
      }
    } else {
      pending.push_back(id);
    }
  }
}

SimTime TiresiasDlPolicy::serve_query(DlSchedView& view,
                                      const DliQuery& query) {
  // A free GPU serves the query natively.
  for (std::size_t g = 0; g < view.gpu_count(); ++g) {
    if (view.gpu_serviceable(g)) return query.base_latency;
  }
  // Otherwise Tiresias usually preempts a trainer to prioritize the short
  // query (suspend/resume overhead inflates it a little); the rest queue
  // behind the running quantum.
  if (view.rng().chance(kTiresiasDliPriority)) {
    ++preemptions_;
    return static_cast<SimTime>(
        static_cast<double>(query.base_latency) * 1.2);
  }
  const SimTime wait = static_cast<SimTime>(
      view.rng().uniform(0.0, 2.0 * static_cast<double>(kSec)));
  return query.base_latency + wait;
}

void TiresiasDlPolicy::on_node_down(cluster::SchedulingContext& /*ctx*/,
                                    NodeId /*node*/) {
  last_quantum_ = -kHour;
}

// ---------------------------------------------------------------- CBP+PP --

void CbpPpDlPolicy::schedule(DlSchedView& view) {
  // Crash-free FCFS with backfill: the head waits for its gang, but smaller
  // jobs behind it may start on GPUs the head cannot use yet (utilization-
  // aware harvesting keeps them safe), bounded to a small lookahead so the
  // head cannot starve.
  auto& pending = view.pending();
  std::size_t scanned = 0;
  for (auto it = pending.begin(); it != pending.end() && scanned < 64;
       ++scanned) {
    auto& job = view.job(*it);
    if (view.place(*it, job.gpus, 1)) {
      job.running = true;
      it = pending.erase(it);
    } else {
      ++it;
    }
  }
}

SimTime CbpPpDlPolicy::serve_query(DlSchedView& view, const DliQuery& query) {
  const DlClusterConfig& cfg = view.config();
  // Prefer a free GPU.
  for (std::size_t g = 0; g < view.gpu_count(); ++g) {
    if (view.gpu_serviceable(g)) return query.base_latency;
  }
  // Otherwise co-locate into a predicted mini-batch lull. With probability
  // = forecast accuracy the query slips into the lull (near-native speed);
  // a misprediction collides with the compute phase.
  const std::size_t gpu = random_gpu(view);
  if (view.rng().chance(cfg.pp_accuracy)) {
    return static_cast<SimTime>(
        static_cast<double>(query.base_latency) * 1.15);
  }
  return static_cast<SimTime>(
      static_cast<double>(query.base_latency) *
      (1.0 +
       kDliBlocking * static_cast<double>(std::max(1, view.load(gpu)))));
}

// ------------------------------------------------------------- CBP-Local --

bool CbpLocalDlPolicy::place_local(DlSchedView& view, int job, int gang) {
  const DlClusterConfig& cfg = view.config();
  const std::size_t gpu_count = view.gpu_count();
  const auto nodes = static_cast<int>(
      gpu_count / static_cast<std::size_t>(cfg.gpus_per_node));

  // Serviceable-GPU census per node (exclusive placement: a candidate GPU
  // is online, empty, unpaused and fits one trainer — view.place re-checks
  // all of it, the census only ranks locality domains).
  std::vector<int> node_free(static_cast<std::size_t>(nodes), 0);
  for (std::size_t g = 0; g < gpu_count; ++g) {
    if (view.gpu_serviceable(g)) {
      ++node_free[static_cast<std::size_t>(view.node_of(g).value)];
    }
  }

  // Pass 1: best-fit node — the fullest node that still holds the whole
  // gang (ties: lowest index). Packing under one host keeps the all-reduce
  // on NVLink and leaves big nodes free for big gangs.
  int best_node = -1;
  for (int n = 0; n < nodes; ++n) {
    const int free = node_free[static_cast<std::size_t>(n)];
    if (free < gang) continue;
    if (best_node < 0 ||
        free < node_free[static_cast<std::size_t>(best_node)]) {
      best_node = n;
    }
  }
  if (best_node >= 0 &&
      view.place(job, gang, /*max_share=*/1, [&](std::size_t g) {
        return view.node_of(g).value == best_node;
      })) {
    return true;
  }

  // Pass 2: best-fit ToR — same rule one tier up; the gang spans nodes but
  // its gradient exchange stays under one switch.
  int tors = 1;
  for (int n = 0; n < nodes; ++n) {
    tors = std::max(tors, view.tor_of(NodeId{n}) + 1);
  }
  std::vector<int> tor_free(static_cast<std::size_t>(tors), 0);
  for (int n = 0; n < nodes; ++n) {
    tor_free[static_cast<std::size_t>(view.tor_of(NodeId{n}))] +=
        node_free[static_cast<std::size_t>(n)];
  }
  int best_tor = -1;
  for (int t = 0; t < tors; ++t) {
    const int free = tor_free[static_cast<std::size_t>(t)];
    if (free < gang) continue;
    if (best_tor < 0 || free < tor_free[static_cast<std::size_t>(best_tor)]) {
      best_tor = t;
    }
  }
  if (best_tor >= 0 &&
      view.place(job, gang, /*max_share=*/1, [&](std::size_t g) {
        return view.tor_of(view.node_of(g)) == best_tor;
      })) {
    return true;
  }

  // Pass 3: anywhere — exactly CBP+PP's placement.
  return view.place(job, gang, /*max_share=*/1);
}

void CbpLocalDlPolicy::schedule(DlSchedView& view) {
  // CBP+PP's FCFS-with-bounded-backfill admission, with the three-pass
  // locality placement swapped in.
  auto& pending = view.pending();
  std::size_t scanned = 0;
  for (auto it = pending.begin(); it != pending.end() && scanned < 64;
       ++scanned) {
    auto& job = view.job(*it);
    if (place_local(view, *it, job.gpus)) {
      job.running = true;
      it = pending.erase(it);
    } else {
      ++it;
    }
  }
}

void register_dl_schedulers() {
  static std::once_flag once;
  std::call_once(once, [] {
    sched::register_scheduler("resag", [](const sched::SchedParams&) {
      return std::make_unique<ResAgDlPolicy>();
    });
    sched::register_scheduler("gandiva", [](const sched::SchedParams&) {
      return std::make_unique<GandivaDlPolicy>();
    });
    sched::register_scheduler("tiresias", [](const sched::SchedParams&) {
      return std::make_unique<TiresiasDlPolicy>();
    });
    sched::register_scheduler("cbp-pp", [](const sched::SchedParams&) {
      return std::make_unique<CbpPpDlPolicy>();
    });
    sched::register_scheduler("cbp-local", [](const sched::SchedParams&) {
      return std::make_unique<CbpLocalDlPolicy>();
    });
  });
}

}  // namespace knots::dlsim
