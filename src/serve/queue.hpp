// Per-service request queue with dynamic batching.
//
// A batch leaves the queue when it is full (max_batch requests) or when the
// oldest queued request has waited batch_timeout — the standard
// size-or-timeout rule (TF-Serving style). The queue is pure bookkeeping:
// the serving engine decides *when* to poll it (arrival, timeout and
// replica-free events) and where the batch runs.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/types.hpp"

namespace knots::serve {

class ServiceQueue {
 public:
  ServiceQueue(int max_batch, SimTime batch_timeout);

  void push(std::uint32_t request, SimTime arrival);
  /// Re-queues one interrupted request at the front (callers walk a dead
  /// batch in reverse to preserve order). `arrival` is the request's
  /// original arrival, so its timeout ripeness carries over.
  void push_front(std::uint32_t request, SimTime arrival);

  [[nodiscard]] std::size_t depth() const noexcept { return q_.size(); }
  [[nodiscard]] bool empty() const noexcept { return q_.empty(); }

  /// True when a batch may dispatch now: full, or the front request has
  /// waited out the batch timeout.
  [[nodiscard]] bool ripe(SimTime now) const noexcept;

  /// When the front request's timeout fires (undefined when empty).
  [[nodiscard]] SimTime front_ready_at() const noexcept;

  /// Pops up to max_batch requests. Call only when ripe().
  [[nodiscard]] std::vector<std::uint32_t> form_batch();

 private:
  struct Entry {
    std::uint32_t request;
    SimTime arrival;
  };
  std::deque<Entry> q_;
  int max_batch_;
  SimTime timeout_;
};

}  // namespace knots::serve
