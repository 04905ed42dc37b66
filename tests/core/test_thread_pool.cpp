#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace knots {
namespace {

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long> partial(64, 0);
  pool.parallel_for(64, [&](std::size_t i) {
    long s = 0;
    for (std::size_t k = i * 100; k < (i + 1) * 100; ++k) {
      s += static_cast<long>(k);
    }
    partial[i] = s;
  });
  const long total = std::accumulate(partial.begin(), partial.end(), 0L);
  EXPECT_EQ(total, 6400L * 6399L / 2);
}

TEST(ThreadPool, ParallelForMoreItemsThanThreadsSelfSchedules) {
  // Work-stealing grid shape: far more items than workers, wildly uneven
  // costs. Every index must run exactly once.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) {
    if (i % 97 == 0) {  // a few "expensive simulations"
      volatile long spin = 0;
      for (int k = 0; k < 20000; ++k) spin = spin + k;
    }
    ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForOversubscriptionStress) {
  // Far more items than worker threads (a seeds × schedulers sweep on a
  // 2-core runner), with the pool re-entered many times. Every item must
  // run exactly once per call, every call, with all writes visible to the
  // caller afterwards.
  ThreadPool pool(2);
  constexpr std::size_t kItems = 256;
  constexpr int kCalls = 200;
  std::vector<std::uint64_t> item_sum(kItems, 0);
  for (int call = 0; call < kCalls; ++call) {
    pool.parallel_for(kItems, [&](std::size_t item) { ++item_sum[item]; });
  }
  for (const auto sum : item_sum) {
    EXPECT_EQ(sum, static_cast<std::uint64_t>(kCalls));
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(16,
                                 [](std::size_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("slot 7");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForThrowsOnlyAfterEveryPullerStops) {
  // The pullers call `fn`, which may be a temporary that dies when
  // parallel_for returns: a throwing item must not let the call return
  // while another puller is still inside fn.
  ThreadPool pool(4);
  std::atomic<int> in_flight{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 0) throw std::runtime_error("0");
                                   in_flight.fetch_add(1);
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(2));
                                   in_flight.fetch_sub(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(in_flight.load(), 0);
}

TEST(ThreadPool, ParallelForAdaptiveChunkingCoversEveryIndexOnce) {
  // The chunked work-stealing path (chunk = n / (pullers * 8)) must still
  // visit every index exactly once, for sizes around chunk boundaries,
  // worker-count boundaries, and the serial n<=1 fast path.
  ThreadPool pool(4);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{31}, std::size_t{32}, std::size_t{33},
        std::size_t{1000}, std::size_t{4099}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " index " << i;
    }
  }
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      (void)pool.submit([&counter] { ++counter; });
    }
  }  // destructor must drain or join without crashing
  EXPECT_LE(counter.load(), 20);
}

}  // namespace
}  // namespace knots
