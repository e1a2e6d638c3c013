#ifndef ACTOR_UTIL_CACHE_LINE_H_
#define ACTOR_UTIL_CACHE_LINE_H_

#include <cstddef>
#include <cstdlib>
#include <vector>

#include "util/logging.h"

namespace actor {

/// The gap two threads' hot write sets need to stay out of each other's
/// way: two 64-byte cache lines. Distinct lines are not enough: the L2
/// prefetchers fetch lines in 128-byte aligned pairs and run ahead of a
/// buffer that is touched front to back, so a neighbour's line within 128
/// bytes is pulled in — and invalidated by the neighbour's next store —
/// along with one's own. On a 4-vCPU Xeon VM, four concurrent OnlineActor
/// shard epochs ran about 1.6x slower with their 128-byte gradient slots
/// 128 bytes apart than 256 bytes apart (docs/sharding.md).
inline constexpr std::size_t kShardIsolationBytes = 128;

/// `bytes` rounded up to whole isolation spans, plus one more span of
/// clear space after the end.
inline constexpr std::size_t IsolatedBytes(std::size_t bytes) {
  return (bytes + kShardIsolationBytes - 1) / kShardIsolationBytes *
             kShardIsolationBytes +
         kShardIsolationBytes;
}

/// Allocator for a container one shard epoch writes while other shards
/// write theirs (its dirty-row words): every block starts on a
/// kShardIsolationBytes boundary and owns kShardIsolationBytes of clear
/// space past its end, so no other block's data sits within that gap.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(std::size_t n) {
    // IsolatedBytes() is a multiple of the alignment, as aligned_alloc
    // requires.
    void* p = std::aligned_alloc(kShardIsolationBytes,
                                 IsolatedBytes(n * sizeof(T)));
    ACTOR_CHECK(p != nullptr);
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) { std::free(p); }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const {
    return true;
  }
};

/// Per-shard float scratch for the parallel trainers: `shards` slots of
/// `floats` floats, each starting on its own cache line with
/// kShardIsolationBytes of clear space before the next slot. Allocated at
/// the dispatch site (shard bodies must not allocate) and indexed by the
/// shard id the dispatch hands out.
class ShardScratch {
 public:
  ShardScratch() = default;
  ShardScratch(std::size_t shards, std::size_t floats)
      : stride_(IsolatedBytes(floats * sizeof(float)) / sizeof(float)),
        data_(shards * stride_, 0.0f) {}

  float* slot(std::size_t shard) {
    ACTOR_DCHECK((shard + 1) * stride_ <= data_.size())
        << "scratch slot " << shard;
    return data_.data() + shard * stride_;
  }

 private:
  std::size_t stride_ = 0;  // floats from one slot's start to the next
  std::vector<float, CacheLineAllocator<float>> data_;
};

}  // namespace actor

#endif  // ACTOR_UTIL_CACHE_LINE_H_
