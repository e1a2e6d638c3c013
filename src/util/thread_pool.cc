#include "util/thread_pool.h"

#include <algorithm>

namespace actor {

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
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    Submit([c, lo, hi, &fn] { fn(static_cast<int>(c), lo, hi); });
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
