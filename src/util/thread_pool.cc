#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace actor {
namespace {

/// Chunk `c` of `chunks` near-equal contiguous chunks of [0, n): the first
/// n % chunks chunks hold one item more than the rest.
std::pair<std::size_t, std::size_t> BalancedChunk(std::size_t n,
                                                  std::size_t chunks,
                                                  std::size_t c) {
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  const std::size_t lo = c * base + std::min(c, extra);
  return {lo, lo + base + (c < extra ? 1 : 0)};
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ShardedRange(
    std::size_t begin, std::size_t end,
    const std::function<void(int, std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, num_threads());
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto [lo, hi] = BalancedChunk(n, chunks, c);
    Submit([c, lo = begin + lo, hi = begin + hi, &fn] {
      fn(static_cast<int>(c), lo, hi);
    });
  }
  Wait();
}

ShardRunner::ShardRunner(int num_threads, ThreadPool* pool) {
  if (num_threads <= 1) return;
  if (pool == nullptr) {
    owned_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(num_threads));
    pool = owned_.get();
  }
  pool_ = pool;
}

void ShardRunner::ShardedRange(
    std::size_t n,
    const std::function<void(int, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (std::min(n, max_shards()) == 1) {
    fn(0, 0, n);
    return;
  }
  pool_->ShardedRange(0, n, fn);
}

void ShardRunner::ParallelFor(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t chunks =
      pool_ == nullptr ? 1 : std::min(n, pool_->num_threads() + 1);
  auto run_chunk = [n, chunks, &fn](std::size_t c) {
    const auto [lo, hi] = BalancedChunk(n, chunks, c);
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  };
  if (chunks == 1) {
    run_chunk(0);
    return;
  }
  for (std::size_t c = 1; c < chunks; ++c) {
    pool_->Submit([c, &run_chunk] { run_chunk(c); });
  }
  run_chunk(0);
  pool_->Wait();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace actor
