#include "common/thread_pool.h"

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"

namespace nashdb {
namespace {

// Every index in [0, n) must run exactly once, whatever the worker count.
void ExpectCoversRange(ThreadPool* pool, std::size_t n, std::size_t grain) {
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelFor(
      pool, n, [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NullPoolRunsSerially) {
  ExpectCoversRange(nullptr, 1000, 1);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  EXPECT_FALSE(pool.OnWorkerThread());
  // Schedule on a workerless pool executes on the calling thread.
  bool ran = false;
  pool.Schedule([&] { ran = true; });
  EXPECT_TRUE(ran);
  ExpectCoversRange(&pool, 500, 1);
}

TEST(ThreadPoolTest, SingleWorkerPool) {
  ThreadPool pool(1);
  ExpectCoversRange(&pool, 500, 1);
}

TEST(ThreadPoolTest, ManyWorkersCoverEveryIndexOnce) {
  ThreadPool pool(8);
  ExpectCoversRange(&pool, 10'000, 1);
  ExpectCoversRange(&pool, 10'000, 64);
  ExpectCoversRange(&pool, 7, 64);  // n smaller than one block
  ExpectCoversRange(&pool, 0, 1);   // empty range: no calls, no hang
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  const std::size_t n = 5'000;
  std::vector<long> out(n, 0);
  ParallelFor(&pool, n,
              [&](std::size_t i) { out[i] = static_cast<long>(i) * 3; }, 16);
  long expected = 0, got = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expected += static_cast<long>(i) * 3;
    got += out[i];
  }
  EXPECT_EQ(got, expected);
}

TEST(ThreadPoolTest, FirstExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 1'000,
                  [&](std::size_t i) {
                    if (i == 137) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool survives a throwing loop and remains usable.
  ExpectCoversRange(&pool, 200, 1);
}

TEST(ThreadPoolTest, ExceptionOnZeroWorkerPoolPropagates) {
  ThreadPool pool(0);
  EXPECT_THROW(ParallelFor(&pool, 10,
                           [&](std::size_t i) {
                             if (i == 3) throw std::logic_error("inline");
                           }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  std::atomic<int> on_worker{0};
  ParallelFor(&pool, 8, [&](std::size_t) {
    if (pool.OnWorkerThread()) on_worker.fetch_add(1);
    // A nested call on the same pool must degrade to inline execution
    // rather than waiting on the queue it is itself running from.
    ParallelFor(&pool, 50, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 50);
  EXPECT_GT(on_worker.load(), 0);
}

TEST(ThreadPoolTest, CallerThreadParticipates) {
  // With one worker and two long blocks, the caller must take one: total
  // work completes even if the single worker only handles one block.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  ParallelFor(
      &pool, 2, [&](std::size_t) { ran.fetch_add(1); }, 1);
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, ScheduleRunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&] {
      count.fetch_add(1);
      done.fetch_add(1);
    });
  }
  // Drain via a ParallelFor barrier-ish trick: FIFO queue means these 100
  // tasks run before the loop blocks finish claiming.
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

// Percentile() used to sort the sample vector lazily without a lock, so
// two concurrent readers raced inside std::sort on shared state — a
// use-after-move/segfault under contention and a guaranteed TSan report.
// Reachable since the reconfiguration pipeline went multithreaded; run
// this under NASHDB_SANITIZE=thread (ctest -L tsan) to prove the fix.
TEST(PercentileTrackerTest, ConcurrentAddAndPercentileAreSafe) {
  PercentileTracker tracker;
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kPerWriter = 5'000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&tracker, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        tracker.Add(static_cast<double>(w * kPerWriter + i));
      }
    });
  }
  static constexpr double kMaxWritten = kWriters * kPerWriter - 1;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&tracker, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        // One locked call promises only a value from the samples it saw
        // (0 while empty). Two calls are two snapshots: writers append in
        // between, so p95 from one and p50 from the next may be ordered
        // either way — that ordering is checked once the writers are done.
        const double p = tracker.Percentile(95.0);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, kMaxWritten);
        (void)tracker.mean();
        (void)tracker.count();
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(tracker.count(),
            static_cast<std::size_t>(kWriters) * kPerWriter);
  EXPECT_GE(tracker.Percentile(95.0), tracker.Percentile(50.0));
  EXPECT_EQ(tracker.Percentile(0.0), 0.0);
  EXPECT_EQ(tracker.Percentile(100.0), kMaxWritten);
}

// Interleaved sorted reads and unsorted appends: the lazy re-sort must
// keep answers exact at every point, not just after the final Add.
TEST(PercentileTrackerTest, ResortsAfterInterleavedAdds) {
  PercentileTracker tracker;
  tracker.Add(10.0);
  tracker.Add(0.0);
  EXPECT_EQ(tracker.Percentile(100.0), 10.0);  // triggers the first sort
  tracker.Add(20.0);                           // invalidates sorted state
  EXPECT_EQ(tracker.Percentile(100.0), 20.0);
  EXPECT_EQ(tracker.Percentile(0.0), 0.0);
  EXPECT_EQ(tracker.count(), 3u);
  EXPECT_NEAR(tracker.mean(), 10.0, 1e-12);
}

}  // namespace
}  // namespace nashdb
