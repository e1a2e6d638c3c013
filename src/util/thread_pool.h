#ifndef ACTOR_UTIL_THREAD_POOL_H_
#define ACTOR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace actor {

/// Fixed-size worker pool. Tasks are arbitrary closures; Wait() blocks until
/// the queue drains and all in-flight tasks finish.
///
/// The pool is designed to be created once and threaded through an entire
/// training run, so the hot path pays one spawn/join cycle per run instead
/// of one per TrainEdgeType call. Trainers do not use it directly: each one
/// dispatches through a ShardRunner (below), which borrows a caller's pool
/// or owns one for its lifetime. TrainActor's runner hands its pool to the
/// LINE pre-trainer and the edge-sampling trainer, whose runners borrow it.
///
/// Synchronization contract: Submit() publishes the closure's captured
/// state to the executing worker, and Wait()/ShardedRange() returning
/// establishes happens-before from everything the tasks wrote back to
/// the caller (mutex + condition variable internally). The HOGWILD
/// trainers rely on exactly this: shared embedding rows are updated
/// race-fully *during* a sharded call (through the relaxed-auditable
/// kernels of util/vec_math.h, see DESIGN.md §7), but the batch boundary
/// itself is a clean synchronization point.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task for execution. Safe to call from any thread,
  /// including from inside a running task (but a task must never Wait()
  /// on the pool executing it — that deadlocks on a saturated queue).
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed (queue drained and
  /// no task in flight). Only call from threads outside the pool.
  void Wait();

  /// Splits [begin, end) into min(end - begin, num_threads()) contiguous
  /// chunks whose sizes differ by at most one (the larger ones first) and
  /// runs fn(shard, lo, hi) for each on the pool, then waits. Shard ids
  /// are dense in [0, chunks) so callers can derive uncorrelated per-shard
  /// RNG streams (the ShardSeed() SplitMix64 chain in embedding/sgd.h is
  /// the canonical recipe). An empty range runs nothing. fn must be safe
  /// to call concurrently on disjoint ranges (the HOGWILD trainers rely on
  /// exactly that).
  void ShardedRange(
      std::size_t begin, std::size_t end,
      const std::function<void(int, std::size_t, std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable task_cv_;   // signals workers
  std::condition_variable done_cv_;   // signals Wait()
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// The worker-pool policy every trainer shares (HOGWILD edge sampling,
/// LINE, skip-gram, the record loop, OnlineActor's shard epochs, mean
/// shift). `num_threads <= 1` ignores any pool and runs every call inline
/// on the caller, the sequential bit-deterministic path. Otherwise the
/// runner borrows `pool` (which must outlive it) or, when that is null,
/// owns a pool of `num_threads` workers for its lifetime; a borrowed
/// pool's worker count overrides `num_threads`.
class ShardRunner {
 public:
  ShardRunner(int num_threads, ThreadPool* pool);

  /// The pool shards run on; null on the inline path. Nested trainers
  /// borrow it so one run spawns its workers once.
  ThreadPool* pool() const { return pool_; }

  /// ShardedRange() hands out shard ids in [0, max_shards()) — the pool's
  /// worker count, or 1 inline — so this sizes per-shard scratch.
  std::size_t max_shards() const {
    return pool_ == nullptr ? 1 : pool_->num_threads();
  }

  /// Runs fn(shard, lo, hi) over [0, n) with ThreadPool::ShardedRange's
  /// split and shard ids. When that split has a single chunk (the inline
  /// path, a 1-worker pool, n == 1) the call is fn(0, 0, n) on the calling
  /// thread; n == 0 runs nothing.
  void ShardedRange(
      std::size_t n,
      const std::function<void(int, std::size_t, std::size_t)>& fn);

  /// Runs fn(i) once for every i in [0, n) — independent items such as
  /// model shards — and returns when all are done. The calling thread
  /// works too: [0, n) is split like ShardedRange() into
  /// min(n, max_shards() + 1) chunks, the pool's workers run all but the
  /// first and the caller runs the first, so a P-worker pool runs up to
  /// P + 1 items at once. Inline, every item runs on the caller in order.
  /// fn must be safe to call concurrently on distinct items.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  std::unique_ptr<ThreadPool> owned_;  // backs pool_ when not borrowed
  ThreadPool* pool_ = nullptr;
};

}  // namespace actor

#endif  // ACTOR_UTIL_THREAD_POOL_H_
