#include "sched/registry.hpp"

#include <map>
#include <mutex>
#include <utility>

#include "core/check.hpp"
#include "sched/peak_prediction.hpp"
#include "sched/resource_agnostic.hpp"
#include "sched/uniform.hpp"

namespace knots::sched {
namespace {

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

// Name → factory. Guarded by registry_mutex(); factories are copied out
// before invocation so user factories never run under the lock.
std::map<std::string, SchedulerFactory>& factories() {
  static std::map<std::string, SchedulerFactory> map;
  return map;
}

// Seeds the four pod schedulers under their display names. Runs once,
// lazily, under the registry mutex (callers below hold it already).
void ensure_builtins_locked() {
  static bool seeded = false;
  if (seeded) return;
  seeded = true;
  for (SchedulerKind kind : kAllSchedulers) {
    factories()[to_string(kind)] = [kind](const SchedParams& params) {
      return make_scheduler(kind, params);
    };
  }
}

}  // namespace

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kUniform: return "Uniform";
    case SchedulerKind::kResourceAgnostic: return "Res-Ag";
    case SchedulerKind::kCbp: return "CBP";
    case SchedulerKind::kPeakPrediction: return "PP";
  }
  return "unknown";
}

SchedulerKind scheduler_from_name(const std::string& name) {
  for (SchedulerKind kind : kAllSchedulers) {
    if (to_string(kind) == name) return kind;
  }
  KNOTS_CHECK_MSG(false, "unknown scheduler name");
  return SchedulerKind::kUniform;
}

std::unique_ptr<cluster::Scheduler> make_scheduler(SchedulerKind kind,
                                                   SchedParams params) {
  switch (kind) {
    case SchedulerKind::kUniform:
      return std::make_unique<UniformScheduler>();
    case SchedulerKind::kResourceAgnostic:
      return std::make_unique<ResourceAgnosticScheduler>(params);
    case SchedulerKind::kCbp:
      return std::make_unique<CbpScheduler>(params);
    case SchedulerKind::kPeakPrediction:
      return std::make_unique<PeakPredictionScheduler>(params);
  }
  return nullptr;
}

void register_scheduler(const std::string& name, SchedulerFactory factory) {
  KNOTS_CHECK_MSG(factory != nullptr, "null scheduler factory");
  const std::lock_guard<std::mutex> lock(registry_mutex());
  ensure_builtins_locked();
  factories()[name] = std::move(factory);
}

bool scheduler_registered(const std::string& name) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  ensure_builtins_locked();
  return factories().contains(name);
}

std::unique_ptr<cluster::Scheduler> make_scheduler(const std::string& name,
                                                   SchedParams params) {
  SchedulerFactory factory;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    ensure_builtins_locked();
    auto it = factories().find(name);
    KNOTS_CHECK_MSG(it != factories().end(), "unknown scheduler name");
    factory = it->second;
  }
  return factory(params);
}

}  // namespace knots::sched
