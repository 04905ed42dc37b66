#include "core/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace knots {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t pullers = std::min(n, workers_.size());
  if (pullers <= 1) {
    // Degenerate pool (or a single item): run inline on the caller — no
    // queue round-trip, no future, no fence.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Self-scheduling: one resident task per worker pulls index *chunks* off
  // a shared atomic counter. Uneven item costs (a CBP run takes ~3x a
  // Uniform run) balance dynamically, and the queue sees thread_count()
  // entries instead of n. The chunk grain adapts to the range: ~8 grabs
  // per puller amortizes the atomic for small ranges while staying
  // fine-grained enough to balance.
  const std::size_t chunk = std::max<std::size_t>(1, n / (pullers * 8));
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  std::vector<std::future<void>> futures;
  futures.reserve(pullers);
  for (std::size_t p = 0; p < pullers; ++p) {
    futures.push_back(submit([next, n, chunk, &fn] {
      for (std::size_t lo = next->fetch_add(chunk, std::memory_order_relaxed);
           lo < n; lo = next->fetch_add(chunk, std::memory_order_relaxed)) {
        const std::size_t hi = std::min(n, lo + chunk);
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      }
    }));
  }
  // Every puller references `fn`, which may not outlive this call, so wait
  // for all of them before rethrowing the first exception (remaining
  // indices of a throwing puller are abandoned, as with the previous
  // per-index tasks).
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace knots
