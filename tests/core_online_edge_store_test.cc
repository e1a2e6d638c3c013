// OnlineEdgeStore: the decaying flat-array co-occurrence store behind
// OnlineActor's streaming pipeline (docs/streaming.md). Positive tests
// cover accumulate/decay/drop/version semantics; death tests prove the
// ACTOR_DCHECK contracts fire in debug builds (sanitize preset).

#include "core/online_edge_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace actor {
namespace {

#define SKIP_WITHOUT_DCHECKS()                                        \
  if (!kDebugChecksEnabled) {                                         \
    GTEST_SKIP() << "ACTOR_DCHECK compiled out (release build); run " \
                    "under the sanitize preset";                      \
  }

/// A store with room for `edges` edges over vertex ids below `vertices`;
/// Accumulate() never grows the store itself.
OnlineEdgeStore ReservedStore(std::size_t edges = 16, int32_t vertices = 16) {
  OnlineEdgeStore store;
  store.Reserve(edges, vertices);
  return store;
}

TEST(OnlineEdgeStoreTest, AccumulateMergesDuplicatesEitherOrientation) {
  OnlineEdgeStore store = ReservedStore();
  store.Accumulate(3, 7, 1.0);
  store.Accumulate(7, 3, 2.0);  // same undirected edge, flipped
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.src()[0], 3);  // canonical orientation src < dst
  EXPECT_EQ(store.dst()[0], 7);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(3, 7), 3.0);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(7, 3), 3.0);
  EXPECT_DOUBLE_EQ(store.total_weight(), 3.0);
  EXPECT_TRUE(store.DebugCheckConsistent());
}

TEST(OnlineEdgeStoreTest, DecayScalesWeightsLazily) {
  OnlineEdgeStore store = ReservedStore();
  store.set_min_weight(0.01);
  store.Accumulate(0, 1, 1.0);
  store.Accumulate(1, 2, 4.0);
  store.Decay(0.5);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(1, 2), 2.0);
  // Lazy trick: raw weights are untouched, only the scale moved, so the
  // relative distribution (what the alias table samples) is unchanged.
  EXPECT_DOUBLE_EQ(store.raw_weights()[0], 1.0);
  EXPECT_DOUBLE_EQ(store.raw_weights()[1], 4.0);
  EXPECT_DOUBLE_EQ(store.weight_scale(), 0.5);
  EXPECT_TRUE(store.DebugCheckConsistent(/*after_decay=*/true));
}

TEST(OnlineEdgeStoreTest, PureDecayKeepsVersionStable) {
  OnlineEdgeStore store = ReservedStore();
  store.set_min_weight(0.01);
  store.Accumulate(0, 1, 1.0);
  const uint64_t v = store.version();
  store.Decay(0.9);  // nothing drops: samplers stay valid, version holds
  EXPECT_EQ(store.version(), v);
  store.Accumulate(0, 2, 1.0);  // new edge: distribution changed
  EXPECT_GT(store.version(), v);
}

TEST(OnlineEdgeStoreTest, DecayDropsEdgesBelowMinWeightAndFixesDegrees) {
  OnlineEdgeStore store = ReservedStore();
  store.set_min_weight(0.5);
  store.Accumulate(0, 1, 1.0);   // dies after one 0.4x decay
  store.Accumulate(1, 2, 10.0);  // survives
  const uint64_t v = store.version();
  store.Decay(0.4);
  EXPECT_GT(store.version(), v);  // drop invalidates cached samplers
  ASSERT_EQ(store.size(), 1u);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(1, 2), 4.0);
  // Vertex 0 lost its only edge: its degree must be cleared to 0, and
  // vertex 1's degree must only count the survivor.
  EXPECT_EQ(store.raw_degrees()[0], 0.0);
  const double deg1 = store.raw_degrees()[1] * store.weight_scale();
  EXPECT_NEAR(deg1, 4.0, 1e-12);
  EXPECT_TRUE(store.DebugCheckConsistent(/*after_decay=*/true));
}

TEST(OnlineEdgeStoreTest, SwapRemoveKeepsIndexConsistent) {
  OnlineEdgeStore store = ReservedStore();
  store.set_min_weight(0.5);
  store.Accumulate(0, 1, 0.6);  // slot 0: drops
  store.Accumulate(2, 3, 9.0);  // slot 1: survives, moves into slot 0
  store.Accumulate(4, 5, 0.6);  // slot 2: drops
  store.Accumulate(6, 7, 9.0);  // slot 3: survives
  store.Decay(0.5);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(2, 3), 4.5);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(6, 7), 4.5);
  // Accumulating into a moved edge must hit its new slot, not a stale one.
  store.Accumulate(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(2, 3), 5.5);
  EXPECT_TRUE(store.DebugCheckConsistent());
}

TEST(OnlineEdgeStoreTest, FullDrainLeavesCleanEmptyStore) {
  OnlineEdgeStore store = ReservedStore();
  store.set_min_weight(0.5);
  store.Accumulate(0, 1, 1.0);
  store.Accumulate(2, 3, 1.0);
  store.Decay(0.1);
  EXPECT_TRUE(store.empty());
  for (const double d : store.raw_degrees()) EXPECT_EQ(d, 0.0);
  EXPECT_DOUBLE_EQ(store.total_weight(), 0.0);
  // The drained store must accept a fresh stream.
  store.Accumulate(5, 6, 2.0);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(5, 6), 2.0);
  EXPECT_TRUE(store.DebugCheckConsistent());
}

TEST(OnlineEdgeStoreTest, LongDecayStreamRenormalizesWithoutDrift) {
  OnlineEdgeStore store = ReservedStore();
  store.set_min_weight(1e-6);
  store.Accumulate(0, 1, 1.0);
  // 0.9^400 ~ 5e-19 would underflow the lazy scale past the renorm
  // threshold several times over; refresh the edge so it never drops.
  for (int i = 0; i < 400; ++i) {
    store.Decay(0.9);
    store.Accumulate(0, 1, 1.0);
  }
  // Fixed point of w' = 0.9 w + 1 is 10; after 400 rounds we are there.
  EXPECT_NEAR(store.EdgeWeight(0, 1), 10.0, 1e-6);
  EXPECT_GE(store.weight_scale(), 1e-9);
  EXPECT_TRUE(store.DebugCheckConsistent());
}

TEST(OnlineEdgeStoreTest, DecayFactorOneIsNoOp) {
  OnlineEdgeStore store = ReservedStore();
  store.Accumulate(0, 1, 1.0);
  const uint64_t v = store.version();
  store.Decay(1.0);
  EXPECT_EQ(store.version(), v);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(0, 1), 1.0);
}

TEST(OnlineEdgeStoreTest, AccumulatesWithinReserveKeepCapacities) {
  // The prepare dispatch accumulates on the shard pool, where nothing may
  // allocate: n accumulates after Reserve(n) must not move any array.
  constexpr std::size_t kEdges = 40;
  OnlineEdgeStore store = ReservedStore(kEdges, 64);
  const std::size_t edge_capacity = store.edge_capacity();
  const std::size_t vertex_capacity = store.vertex_capacity();
  const VertexId* src = store.src().data();
  for (std::size_t i = 0; i < kEdges; ++i) {
    store.Accumulate(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  ASSERT_EQ(store.size(), kEdges);
  EXPECT_EQ(store.edge_capacity(), edge_capacity);
  EXPECT_EQ(store.vertex_capacity(), vertex_capacity);
  EXPECT_EQ(store.src().data(), src);
  // Decay, with drops, works in place too; the next Reserve() grows from
  // the live count.
  store.set_min_weight(0.5);
  store.Accumulate(0, 1, 5.0);
  store.Decay(0.4);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.src().data(), src);
  EXPECT_TRUE(store.DebugCheckConsistent(/*after_decay=*/true));
}

/// Packed pair keys in the PairIndex key space (two non-negative 32-bit
/// halves).
uint64_t PairKey(uint32_t lo, uint32_t hi) {
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

TEST(PairIndexTest, RandomOpsMatchUnorderedMap) {
  PairIndex index;
  std::unordered_map<uint64_t, uint32_t> reference;
  constexpr std::size_t kKeys = 200;
  index.Reserve(kKeys);
  const std::size_t buckets = index.bucket_count();
  Rng rng(17);
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = PairKey(static_cast<uint32_t>(rng.Uniform(20)),
                                 static_cast<uint32_t>(rng.Uniform(10)));
    const uint32_t slot = static_cast<uint32_t>(op);
    switch (rng.Uniform(3)) {
      case 0: {
        const auto [mapped, added] = index.FindOrAdd(key, slot);
        const auto [it, inserted] = reference.emplace(key, slot);
        ASSERT_EQ(added, inserted) << "op " << op;
        ASSERT_EQ(*mapped, it->second) << "op " << op;
        break;
      }
      case 1:
        ASSERT_EQ(index.Erase(key), reference.erase(key) == 1) << "op " << op;
        break;
      default: {
        const uint32_t* found = index.Find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end()) << "op " << op;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << "op " << op;
        }
      }
    }
    ASSERT_EQ(index.size(), reference.size());
  }
  EXPECT_EQ(index.bucket_count(), buckets);  // never grew on its own
  for (const auto& [key, slot] : reference) {
    const uint32_t* found = index.Find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, slot);
  }
}

TEST(PairIndexTest, BackwardShiftEraseAcrossWraparound) {
  PairIndex index;
  index.Reserve(4);
  const std::size_t last = index.bucket_count() - 1;
  // Three keys homed at the last bucket fill it and wrap to buckets 0 and
  // 1; a key homed at bucket 0 then probes on to bucket 2.
  std::vector<uint64_t> at_last;
  uint64_t at_zero = PairIndex::kEmpty;
  for (uint32_t lo = 0; at_last.size() < 3 || at_zero == PairIndex::kEmpty;
       ++lo) {
    const uint64_t key = PairKey(lo, lo + 1);
    const std::size_t home = index.HomeBucket(key);
    if (home == last && at_last.size() < 3) at_last.push_back(key);
    if (home == 0 && at_zero == PairIndex::kEmpty) at_zero = key;
  }
  for (std::size_t i = 0; i < at_last.size(); ++i) {
    ASSERT_TRUE(index.FindOrAdd(at_last[i], static_cast<uint32_t>(i)).second);
  }
  ASSERT_TRUE(index.FindOrAdd(at_zero, 3).second);
  // Erasing the head of the wrapped cluster must shift every survivor back
  // across the wraparound, the bucket-0 key included, so all stay
  // reachable; erasing the rest one by one keeps the others reachable.
  ASSERT_TRUE(index.Erase(at_last[0]));
  EXPECT_EQ(index.Find(at_last[0]), nullptr);
  ASSERT_NE(index.Find(at_last[1]), nullptr);
  EXPECT_EQ(*index.Find(at_last[1]), 1u);
  ASSERT_NE(index.Find(at_last[2]), nullptr);
  EXPECT_EQ(*index.Find(at_last[2]), 2u);
  ASSERT_NE(index.Find(at_zero), nullptr);
  EXPECT_EQ(*index.Find(at_zero), 3u);
  ASSERT_TRUE(index.Erase(at_last[2]));
  ASSERT_NE(index.Find(at_zero), nullptr);
  EXPECT_EQ(*index.Find(at_zero), 3u);
  EXPECT_EQ(*index.Find(at_last[1]), 1u);
  EXPECT_FALSE(index.Erase(at_last[2]));
  EXPECT_EQ(index.size(), 2u);
}

// ---------------------------------------------------------------------------
// Death tests: the DCHECK contracts guarding the streaming invariants.
// ---------------------------------------------------------------------------

TEST(OnlineEdgeStoreDeathTest, SelfLoopAccumulateDies) {
  SKIP_WITHOUT_DCHECKS();
  OnlineEdgeStore store = ReservedStore();
  EXPECT_DEATH(store.Accumulate(4, 4, 1.0), "self-loop");
}

TEST(OnlineEdgeStoreDeathTest, NonPositiveWeightDies) {
  SKIP_WITHOUT_DCHECKS();
  OnlineEdgeStore store = ReservedStore();
  EXPECT_DEATH(store.Accumulate(0, 1, 0.0), "non-positive edge weight");
}

TEST(OnlineEdgeStoreDeathTest, DecayFactorOutOfRangeDies) {
  SKIP_WITHOUT_DCHECKS();
  OnlineEdgeStore store = ReservedStore();
  store.Accumulate(0, 1, 1.0);
  EXPECT_DEATH(store.Decay(0.0), "decay factor");
  EXPECT_DEATH(store.Decay(1.5), "decay factor");
}

// Always-on checks: accumulating past the Reserve()d capacity aborts in
// every build instead of writing out of bounds.
TEST(OnlineEdgeStoreDeathTest, AccumulatePastReserveDies) {
  OnlineEdgeStore store = ReservedStore(1, 4);
  ASSERT_EQ(store.edge_capacity(), 2u);  // grown with as much room again
  store.Accumulate(0, 1, 1.0);
  store.Accumulate(2, 3, 1.0);
  store.Accumulate(1, 0, 1.0);  // an existing edge needs no new room
  EXPECT_DEATH(store.Accumulate(1, 2, 1.0), "past Reserve");
  EXPECT_DEATH(store.Accumulate(0, 4, 1.0), "past Reserve");
}

TEST(OnlineEdgeStoreDeathTest, NonPositiveMinWeightDies) {
  SKIP_WITHOUT_DCHECKS();
  OnlineEdgeStore store = ReservedStore();
  EXPECT_DEATH(store.set_min_weight(0.0), "min_weight");
}

}  // namespace
}  // namespace actor
