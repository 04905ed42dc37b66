// Core value types shared across the Kube-Knots reproduction.
//
// Simulated time is an integer count of microseconds since simulation start.
// All resource quantities carry explicit units in their names (Mb = mebibytes,
// MBps = mebibytes per second, fractions in [0,1]).
#pragma once

#include <cstdint>
#include <compare>
#include <functional>
#include <limits>

namespace knots {

/// Simulated time in microseconds since simulation start.
using SimTime = std::int64_t;

inline constexpr SimTime kUsec = 1;
inline constexpr SimTime kMsec = 1000 * kUsec;
inline constexpr SimTime kSec = 1000 * kMsec;
inline constexpr SimTime kMinute = 60 * kSec;
inline constexpr SimTime kHour = 60 * kMinute;
inline constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// Converts simulated time to floating-point seconds (for reporting only).
constexpr double to_seconds(SimTime t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kSec);
}

/// Converts floating-point seconds to simulated time (rounds toward zero).
constexpr SimTime from_seconds(double s) noexcept {
  return static_cast<SimTime>(s * static_cast<double>(kSec));
}

/// Strongly-typed integer identifier. Tag distinguishes unrelated id spaces.
template <typename Tag>
struct Id {
  std::int32_t value = -1;

  constexpr Id() = default;
  constexpr explicit Id(std::int32_t v) noexcept : value(v) {}

  [[nodiscard]] constexpr bool valid() const noexcept { return value >= 0; }
  constexpr auto operator<=>(const Id&) const = default;
};

struct NodeTag {};
struct GpuTag {};
struct PodTag {};
struct ImageTag {};

using NodeId = Id<NodeTag>;
using GpuId = Id<GpuTag>;
using PodId = Id<PodTag>;
/// A profile-store key (container image, or inference service × batch
/// size), interned densely from 0 by cluster::ProfileStore::intern.
using ImageId = Id<ImageTag>;

}  // namespace knots

template <typename Tag>
struct std::hash<knots::Id<Tag>> {
  std::size_t operator()(const knots::Id<Tag>& id) const noexcept {
    return std::hash<std::int32_t>{}(id.value);
  }
};
