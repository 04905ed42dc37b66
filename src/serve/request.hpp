// One user-facing inference request in the open-loop serving engine.
#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace knots::serve {

/// Terminal fate of a request.
enum class RequestOutcome : std::uint8_t {
  kPending = 0,  ///< Still queued or in flight.
  kCompleted,    ///< Served.
  /// Never set: serving has no degraded model. The benchmark's serving
  /// run still names it, so it stays until that harness changes.
  kDegraded,
  kShed,         ///< Rejected at admission (predicted deadline miss).
  kExpired,      ///< Dropped at dispatch: its deadline had already passed.
};

struct Request {
  std::uint32_t id = 0;
  std::uint16_t service = 0;  ///< Index into ServingConfig::services.
  SimTime arrival = 0;
  SimTime deadline = 0;       ///< arrival + SLO.
  SimTime completion = -1;    ///< Set when served or expired.
  RequestOutcome outcome = RequestOutcome::kPending;

  [[nodiscard]] SimTime latency() const noexcept {
    return completion - arrival;
  }
};

}  // namespace knots::serve
