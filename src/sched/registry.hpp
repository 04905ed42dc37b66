// Scheduler factory keyed by policy kind / name.
//
// Two lookup surfaces coexist:
//  - the historical `SchedulerKind` enum for the four pod schedulers, and
//  - a string-keyed factory registry shared by *every* policy family.
// The pod schedulers self-register lazily under their display names
// ("Uniform", "Res-Ag", "CBP", "PP"); other substrates (e.g. the DL
// policies in dlsim/) call register_scheduler() with their own keys and
// become constructible through the same make_scheduler(name) path.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>

#include "cluster/scheduler.hpp"
#include "sched/params.hpp"

namespace knots::sched {

enum class SchedulerKind { kUniform, kResourceAgnostic, kCbp, kPeakPrediction };

inline constexpr std::array<SchedulerKind, 4> kAllSchedulers = {
    SchedulerKind::kUniform, SchedulerKind::kResourceAgnostic,
    SchedulerKind::kCbp, SchedulerKind::kPeakPrediction};

std::string to_string(SchedulerKind kind);
SchedulerKind scheduler_from_name(const std::string& name);

std::unique_ptr<cluster::Scheduler> make_scheduler(SchedulerKind kind,
                                                   SchedParams params = {});

/// Builds a scheduler instance for `params`.
using SchedulerFactory =
    std::function<std::unique_ptr<cluster::Scheduler>(const SchedParams&)>;

/// Registers (or replaces) a named factory. Thread-safe and idempotent —
/// substrates call this from their entry points rather than relying on
/// static initializers, which static-library linking may drop.
void register_scheduler(const std::string& name, SchedulerFactory factory);

/// True iff `name` resolves to a registered factory (built-ins included).
[[nodiscard]] bool scheduler_registered(const std::string& name);

/// Instantiates the named scheduler; aborts on unknown names (callers that
/// accept external input should check scheduler_registered first).
std::unique_ptr<cluster::Scheduler> make_scheduler(const std::string& name,
                                                   SchedParams params = {});

}  // namespace knots::sched
