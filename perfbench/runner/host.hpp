// What the benchmark records about the machine and build next to every
// result, plus the small JSON writer the runner prints its results with.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct HostStamp {
  std::string cpu_model;
  unsigned cores = 0;
  std::string compiler;
  std::string build_type;
  bool knots_trace = false;  ///< Profiling scope timers compiled in.
  bool optimised = false;    ///< NDEBUG build (timings are meaningful).
};

[[nodiscard]] HostStamp host_stamp();

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// The host's speed right now: the median time, in seconds, of 9 equal
/// chunks of one dependent chain of integer multiplies. The chain touches no
/// memory, so it leaves the simulation's caches alone, and its time follows
/// the core clock. On a shared host that clock drifts by tens of percent
/// over minutes; the runner scales host times by
/// kProbeReferenceS / cpu_probe_s() so the drift cancels.
[[nodiscard]] double cpu_probe_s();

/// What one probe chunk takes on the host the benchmark was tuned on (a
/// 4-vCPU Intel Xeon, Sapphire Rapids, KVM guest). Scaled host times are
/// seconds at that speed.
inline constexpr double kProbeReferenceS = 0.005;

/// One flat JSON object, written field by field. Doubles keep all 17
/// significant digits.
class JsonObject {
 public:
  JsonObject& field(std::string_view key, double value);
  JsonObject& field(std::string_view key, std::uint64_t value);
  JsonObject& field(std::string_view key, bool value);
  JsonObject& field(std::string_view key, std::string_view value);
  JsonObject& field(std::string_view key, const std::vector<double>& values);
  JsonObject& field(std::string_view key,
                    const std::vector<std::string>& values);
  /// Inserts an already-serialised JSON value (object or array).
  JsonObject& raw(std::string_view key, std::string_view json);

  [[nodiscard]] std::string str() const { return "{" + body_.str() + "}"; }

 private:
  std::ostringstream& next(std::string_view key);

  std::ostringstream body_;
  bool first_ = true;
};

}  // namespace perfbench
