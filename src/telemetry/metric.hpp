// The five GPU metrics Knots logs in real time (§IV-A): SM utilization,
// memory utilization, power, transfer (tx) and receive (rx) bandwidth.
#pragma once

#include <array>
#include <string_view>

#include "core/types.hpp"

namespace knots::telemetry {

enum class Metric : int {
  kSmUtil = 0,     ///< [0,1] fraction of SM cycles.
  kMemUtil,        ///< [0,1] fraction of device memory in use.
  kPowerWatts,     ///< Instantaneous board power.
  kTxBandwidth,    ///< Host-to-device MB/s.
  kRxBandwidth,    ///< Device-to-host MB/s.
};

inline constexpr std::array<Metric, 5> kAllMetrics = {
    Metric::kSmUtil, Metric::kMemUtil, Metric::kPowerWatts,
    Metric::kTxBandwidth, Metric::kRxBandwidth};

constexpr std::string_view metric_name(Metric m) noexcept {
  switch (m) {
    case Metric::kSmUtil: return "sm_util";
    case Metric::kMemUtil: return "mem_util";
    case Metric::kPowerWatts: return "power";
    case Metric::kTxBandwidth: return "tx_bandwidth";
    case Metric::kRxBandwidth: return "rx_bandwidth";
  }
  return "unknown";
}

/// One logged observation of one metric (a column read of Rows).
struct Sample {
  SimTime time;
  double value;
};

/// One heartbeat of one GPU: all five metrics, sampled at `time`. In a
/// noised db (TimeSeriesDb) `sm`, `power`, `tx` and `rx` hold the device's
/// raw values, noised when read; `mem` holds the logged reading.
struct Row {
  SimTime time = 0;
  double sm = 0.0;     ///< Metric::kSmUtil
  double mem = 0.0;    ///< Metric::kMemUtil
  double power = 0.0;  ///< Metric::kPowerWatts
  double tx = 0.0;     ///< Metric::kTxBandwidth
  double rx = 0.0;     ///< Metric::kRxBandwidth

  /// The field holding metric `m`.
  [[nodiscard]] static constexpr double Row::*column(Metric m) noexcept {
    switch (m) {
      case Metric::kSmUtil: return &Row::sm;
      case Metric::kMemUtil: return &Row::mem;
      case Metric::kPowerWatts: return &Row::power;
      case Metric::kTxBandwidth: return &Row::tx;
      case Metric::kRxBandwidth: return &Row::rx;
    }
    return &Row::sm;
  }
  [[nodiscard]] constexpr double value(Metric m) const noexcept {
    return this->*column(m);
  }
};
static_assert(sizeof(Row) == 48, "a heartbeat row is six 8-byte fields");

}  // namespace knots::telemetry
