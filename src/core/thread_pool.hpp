// Minimal fixed-size thread pool for embarrassingly parallel experiment
// sweeps (per-seed and per-scheduler runs in the bench harness).
//
// The simulation engine itself is single-threaded and deterministic; the pool
// only ever runs *independent* simulations concurrently.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace knots {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueues a task; the future resolves with its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Work is self-scheduled in adaptive chunks (~8 grabs per puller) from a
  /// shared atomic counter, so unevenly sized items balance across threads
  /// without paying per-index synchronization on small ranges. Runs inline
  /// on the caller when the pool has a single worker. fn must be safe to
  /// call concurrently for distinct i. If fn throws, the call returns only
  /// after every worker has stopped calling fn, rethrowing the first
  /// exception.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace knots
