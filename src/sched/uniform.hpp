// Kubernetes' stock uniform scheduler (the paper's "Uniform" baseline):
// GPUs are opaque countable devices, one pod per GPU, strict FIFO — so a
// latency-critical query can be head-of-line blocked behind batch jobs.
#pragma once

#include "cluster/scheduler.hpp"

namespace knots::sched {

class UniformScheduler final : public cluster::Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "Uniform"; }
  void on_schedule(cluster::SchedulingContext& ctx) override;

 private:
  std::size_t rr_cursor_ = 0;
};

}  // namespace knots::sched
