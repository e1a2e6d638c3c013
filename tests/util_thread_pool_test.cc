#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

namespace actor {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
}

TEST(ThreadPoolTest, SequentialWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (wave + 1) * 20);
  }
}

TEST(ThreadPoolTest, ShardedRangeCoversAllIndicesOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(101);
  pool.ShardedRange(0, 101, [&hits](int, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ShardedRangeEmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ShardedRange(7, 7, [&calls](int, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  pool.ShardedRange(9, 3, [&calls](int, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ShardedRangeFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::vector<int> shards;
  pool.ShardedRange(10, 13, [&](int shard, std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(lo, hi);
    shards.push_back(shard);
  });
  // 3 items across 8 workers: exactly 3 non-empty single-item shards with
  // dense shard ids.
  ASSERT_EQ(ranges.size(), 3u);
  std::sort(ranges.begin(), ranges.end());
  std::sort(shards.begin(), shards.end());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ranges[i].first, 10 + i);
    EXPECT_EQ(ranges[i].second, 11 + i);
    EXPECT_EQ(shards[i], static_cast<int>(i));
  }
}

TEST(ThreadPoolTest, ShardedRangeShardIdsAreDenseAndDistinct) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<int> shards;
  pool.ShardedRange(0, 1000, [&](int shard, std::size_t, std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    shards.push_back(shard);
  });
  std::sort(shards.begin(), shards.end());
  ASSERT_EQ(shards.size(), 4u);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(shards[s], s);
}

// The split is balanced: exactly min(n, workers) chunks whose sizes differ
// by at most one, larger ones first — 4 items on 3 workers run as 2+1+1,
// so no worker idles while another runs two items.
TEST(ThreadPoolTest, ShardedRangeSplitsIntoBalancedChunksPerWorker) {
  struct Case {
    std::size_t workers;
    std::size_t n;
    std::vector<std::size_t> sizes;  // per shard id
  };
  const Case cases[] = {
      {3, 4, {2, 1, 1}},
      {4, 5, {2, 1, 1, 1}},
      {4, 10, {3, 3, 2, 2}},
      {3, 9, {3, 3, 3}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.n << " items on " << c.workers);
    ThreadPool pool(c.workers);
    std::mutex mu;
    std::vector<std::tuple<int, std::size_t, std::size_t>> calls;
    pool.ShardedRange(0, c.n, [&](int shard, std::size_t lo, std::size_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      calls.emplace_back(shard, lo, hi);
    });
    std::sort(calls.begin(), calls.end());
    ASSERT_EQ(calls.size(), c.sizes.size());
    std::size_t next = 0;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto [shard, lo, hi] = calls[i];
      EXPECT_EQ(shard, static_cast<int>(i));
      EXPECT_EQ(lo, next);  // contiguous, in shard order
      EXPECT_EQ(hi - lo, c.sizes[i]);
      next = hi;
    }
    EXPECT_EQ(next, c.n);
  }
}

TEST(ThreadPoolTest, ManySmallTasksDrainCompletely) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 10000);
}

TEST(ThreadPoolTest, ReusableAcrossManyShardedRanges) {
  // The persistent-pool contract: one pool serves hundreds of batch calls
  // (epochs x edge types) without respawning workers.
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.ShardedRange(0, 50, [&sum](int, std::size_t lo, std::size_t hi) {
      sum.fetch_add(static_cast<int64_t>(hi - lo));
    });
  }
  EXPECT_EQ(sum.load(), 200 * 50);
}

TEST(ThreadPoolTest, DestructionWithPendingWorkCompletes) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 50);
}

// --- ShardRunner -------------------------------------------------------------

using ThreadId = decltype(std::this_thread::get_id());

struct ShardCall {
  ThreadId thread;
  int shard;
  std::size_t lo;
  std::size_t hi;
};

/// Runs `runner.ShardedRange(n, ...)` and returns every call it made.
std::vector<ShardCall> RecordCalls(ShardRunner& runner, std::size_t n) {
  std::mutex mu;
  std::vector<ShardCall> calls;
  runner.ShardedRange(n, [&](int shard, std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    calls.push_back({std::this_thread::get_id(), shard, lo, hi});
  });
  return calls;
}

/// (shard, lo, hi) triples in shard order.
std::vector<std::tuple<int, std::size_t, std::size_t>> SortedSplit(
    const std::vector<ShardCall>& calls) {
  std::vector<std::tuple<int, std::size_t, std::size_t>> split;
  for (const ShardCall& c : calls) split.emplace_back(c.shard, c.lo, c.hi);
  std::sort(split.begin(), split.end());
  return split;
}

TEST(ShardRunnerTest, SequentialCasesRunInlineAsOneShard) {
  ThreadPool four(4);
  ThreadPool one(1);
  struct Case {
    const char* name;
    int num_threads;
    ThreadPool* pool;
    std::size_t n;
  };
  const Case cases[] = {
      {"one thread, no pool", 1, nullptr, 10},
      {"zero threads, pool ignored", 0, &four, 10},
      {"one thread, pool ignored", 1, &four, 10},
      {"borrowed 1-worker pool", 4, &one, 10},
      {"single item", 4, &four, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ShardRunner runner(c.num_threads, c.pool);
    const auto calls = RecordCalls(runner, c.n);
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].thread, std::this_thread::get_id());
    EXPECT_EQ(calls[0].shard, 0);
    EXPECT_EQ(calls[0].lo, 0u);
    EXPECT_EQ(calls[0].hi, c.n);
  }
  // num_threads <= 1 ignores the pool entirely.
  EXPECT_EQ(ShardRunner(1, &four).pool(), nullptr);
  EXPECT_EQ(ShardRunner(1, &four).max_shards(), 1u);
  EXPECT_EQ(ShardRunner(4, &one).max_shards(), 1u);
}

TEST(ShardRunnerTest, ParallelSplitMatchesThreadPool) {
  ThreadPool pool(3);
  ShardRunner runner(3, &pool);
  EXPECT_EQ(runner.max_shards(), 3u);
  for (std::size_t n : {2u, 3u, 7u, 10u, 101u}) {
    SCOPED_TRACE(n);
    std::mutex mu;
    std::vector<ShardCall> expected;
    pool.ShardedRange(0, n, [&](int shard, std::size_t lo, std::size_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      expected.push_back({std::this_thread::get_id(), shard, lo, hi});
    });
    const auto calls = RecordCalls(runner, n);
    EXPECT_EQ(SortedSplit(calls), SortedSplit(expected));
    for (const ShardCall& c : calls) {
      EXPECT_NE(c.thread, std::this_thread::get_id()) << "shard " << c.shard;
    }
  }
}

TEST(ShardRunnerTest, BorrowedPoolIsReusedAndOutlivesRunner) {
  ThreadPool pool(2);
  {
    ShardRunner runner(4, &pool);  // the pool's worker count wins
    EXPECT_EQ(runner.pool(), &pool);
    EXPECT_EQ(runner.max_shards(), 2u);
    EXPECT_EQ(RecordCalls(runner, 8).size(), 2u);
  }
  // The runner did not own the pool: it still runs work.
  std::atomic<int> calls{0};
  pool.ShardedRange(0, 4, [&calls](int, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ShardRunnerTest, OwnsAPoolWhenNoneIsBorrowed) {
  ShardRunner runner(3, nullptr);
  ASSERT_NE(runner.pool(), nullptr);
  EXPECT_EQ(runner.pool()->num_threads(), 3u);
  EXPECT_EQ(runner.max_shards(), 3u);
  EXPECT_EQ(SortedSplit(RecordCalls(runner, 9)).size(), 3u);
}

TEST(ShardRunnerTest, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  ShardRunner inline_runner(1, nullptr);
  ShardRunner pooled_runner(4, &pool);
  EXPECT_TRUE(RecordCalls(inline_runner, 0).empty());
  EXPECT_TRUE(RecordCalls(pooled_runner, 0).empty());
}

// --- ShardRunner::ParallelFor ----------------------------------------------

TEST(ShardRunnerTest, ParallelForRunsInlineInOrder) {
  ThreadPool four(4);
  const ThreadId caller = std::this_thread::get_id();
  ShardRunner no_pool(1, nullptr);
  ShardRunner pool_ignored(1, &four);
  for (ShardRunner* runner : {&no_pool, &pool_ignored}) {
    std::vector<std::size_t> order;
    runner->ParallelFor(5, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
}

TEST(ShardRunnerTest, ParallelForCoversEveryItemOnce) {
  ThreadPool pool(3);
  ShardRunner runner(3, &pool);
  for (std::size_t n : {0u, 1u, 2u, 4u, 7u, 50u}) {
    SCOPED_TRACE(n);
    std::vector<std::atomic<int>> hits(n);
    runner.ParallelFor(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

// A P-worker pool runs up to P + 1 items at once: the calling thread takes
// one chunk. Every item here waits until all four have started, so the
// call only returns if 4 items ran together on 3 workers plus the caller.
TEST(ShardRunnerTest, ParallelForRunsOneMoreItemThanWorkersAtOnce) {
  ThreadPool pool(3);
  ShardRunner runner(3, &pool);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool all_together = true;
  std::vector<ThreadId> threads;
  runner.ParallelFor(4, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    threads.push_back(std::this_thread::get_id());
    ++started;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(30),
                     [&started] { return started == 4; })) {
      all_together = false;
    }
  });
  EXPECT_TRUE(all_together);
  ASSERT_EQ(threads.size(), 4u);
  EXPECT_NE(std::find(threads.begin(), threads.end(),
                      std::this_thread::get_id()),
            threads.end())
      << "the calling thread ran no item";
  std::sort(threads.begin(), threads.end());
  EXPECT_EQ(std::unique(threads.begin(), threads.end()), threads.end());
}

}  // namespace
}  // namespace actor
