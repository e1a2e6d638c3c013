#include "shard/vertex_partitioner.h"

#include <gtest/gtest.h>

#include <vector>

#include "shard/sharded_edge_store.h"
#include "shard/sharded_matrix.h"
#include "util/rng.h"

namespace actor {
namespace {

TEST(VertexPartitionerTest, SingleShardAssignsEverythingToZero) {
  PartitionSpec spec;
  spec.num_shards = 1;
  VertexPartitioner p(spec);
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_EQ(p.Assign(v, VertexType::kWord), 0);
  }
}

TEST(VertexPartitionerTest, HashIsStableAndInRange) {
  PartitionSpec spec;
  spec.num_shards = 4;
  VertexPartitioner p(spec);
  std::vector<int> counts(4, 0);
  for (VertexId v = 0; v < 4000; ++v) {
    const int s = p.Assign(v, VertexType::kLocation);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    // Stateless: the same id always maps to the same shard.
    EXPECT_EQ(p.Assign(v, VertexType::kLocation), s);
    ++counts[static_cast<std::size_t>(s)];
  }
  // SplitMix64 spreads dense ids near-uniformly; no shard may be starved.
  for (int c : counts) EXPECT_GT(c, 4000 / 8);
}

TEST(VertexPartitionerTest, RangeKeepsBlocksTogether) {
  PartitionSpec spec;
  spec.num_shards = 3;
  spec.strategy = ShardStrategy::kRange;
  spec.range_block = 10;
  VertexPartitioner p(spec);
  // Ids 0..9 share a block, 10..19 the next, round-robined across shards.
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(p.Assign(v, VertexType::kTime), 0);
  for (VertexId v = 10; v < 20; ++v) {
    EXPECT_EQ(p.Assign(v, VertexType::kTime), 1);
  }
  for (VertexId v = 30; v < 40; ++v) {
    EXPECT_EQ(p.Assign(v, VertexType::kTime), 0);
  }
}

TEST(VertexPartitionerTest, PerTypeOverrideSelectsStrategyByType) {
  PartitionSpec spec;
  spec.num_shards = 2;
  spec.strategy = ShardStrategy::kHash;
  spec.use_per_type = true;
  spec.per_type[static_cast<int>(VertexType::kTime)] = ShardStrategy::kRange;
  spec.per_type[static_cast<int>(VertexType::kWord)] = ShardStrategy::kHash;
  spec.range_block = 4;
  VertexPartitioner p(spec);
  // Temporal ids follow the range layout...
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(p.Assign(v, VertexType::kTime), 0);
  for (VertexId v = 4; v < 8; ++v) EXPECT_EQ(p.Assign(v, VertexType::kTime), 1);
  // ...while word ids hash (match the hash partitioner's answer).
  PartitionSpec hash_spec;
  hash_spec.num_shards = 2;
  VertexPartitioner hash(hash_spec);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(p.Assign(v, VertexType::kWord),
              hash.Assign(v, VertexType::kWord));
  }
}

TEST(ShardMapTest, LocalIdsAreDenseAndOrderPreserving) {
  ShardMap map(3);
  PartitionSpec spec;
  spec.num_shards = 3;
  VertexPartitioner p(spec);
  for (VertexId v = 0; v < 300; ++v) {
    const int owner = p.Assign(v, VertexType::kUser);
    const int32_t local = map.AddVertex(v, owner);
    EXPECT_EQ(map.owner(v), owner);
    EXPECT_EQ(map.local_row(v), local);
    EXPECT_EQ(map.global_id(owner, local), v);
  }
  EXPECT_EQ(map.num_vertices(), 300);
  int32_t total = 0;
  for (int s = 0; s < 3; ++s) {
    total += map.shard_size(s);
    // The order-preserving invariant scatter-gather merging relies on:
    // each shard's global ids are strictly increasing in local-row order.
    const std::vector<VertexId>& globals = map.globals(s);
    for (std::size_t i = 1; i < globals.size(); ++i) {
      EXPECT_LT(globals[i - 1], globals[i]);
    }
  }
  EXPECT_EQ(total, 300);
}

TEST(ShardedMatrixTest, GatherReassemblesGlobalOrder) {
  const int32_t dim = 8;
  ShardMap map(2);
  PartitionSpec spec;
  spec.num_shards = 2;
  VertexPartitioner p(spec);
  ShardedEmbeddingMatrix m(2, dim);
  Rng rng(7);
  for (VertexId v = 0; v < 50; ++v) {
    const int owner = p.Assign(v, VertexType::kWord);
    map.AddVertex(v, owner);
    const int32_t local = m.AppendRow(owner, nullptr);
    // Stamp each row with its global id so gather order is checkable.
    for (int32_t d = 0; d < dim; ++d) {
      m.shard(owner).row(local)[d] = static_cast<float>(v * dim + d);
    }
  }
  EXPECT_EQ(m.total_rows(), 50);
  const EmbeddingMatrix flat = m.Gather(map);
  ASSERT_EQ(flat.rows(), 50);
  for (VertexId v = 0; v < 50; ++v) {
    for (int32_t d = 0; d < dim; ++d) {
      EXPECT_EQ(flat.row(v)[d], static_cast<float>(v * dim + d));
    }
  }
}

/// Builds a 2-shard map where even ids land on shard 0, odd on shard 1.
ShardMap ParityMap(int n) {
  ShardMap map(2);
  for (VertexId v = 0; v < n; ++v) map.AddVertex(v, v % 2);
  return map;
}

/// The edges of `batch` with an endpoint shard `s` owns, in batch order —
/// the routing OnlineActor's resolve step does.
std::vector<BatchEdge> OwnedEdges(const std::vector<BatchEdge>& batch,
                                  const ShardMap& map, int s) {
  std::vector<BatchEdge> owned;
  for (const BatchEdge& edge : batch) {
    if (map.owner(edge.a) == s || map.owner(edge.b) == s) {
      owned.push_back(edge);
    }
  }
  return owned;
}

/// One ingest batch step of shard `s`'s replica: grow it for its edges,
/// then decay by `factor` and accumulate them.
void ApplyToShard(ShardedEdgeStore& store, int s, double factor,
                  const std::vector<BatchEdge>& batch, const ShardMap& map) {
  const std::vector<BatchEdge> owned = OwnedEdges(batch, map, s);
  store.shard(s).Reserve(owned.size(), map.num_vertices());
  store.ApplyBatch(s, factor, owned);
}

/// One ingest batch step of every replica.
void ApplyToAllShards(ShardedEdgeStore& store, double factor,
                      const std::vector<BatchEdge>& batch,
                      const ShardMap& map) {
  for (int s = 0; s < store.num_shards(); ++s) {
    ApplyToShard(store, s, factor, batch, map);
  }
}

TEST(ShardedEdgeStoreTest, CrossShardEdgesReplicateToBothOwners) {
  ShardMap map = ParityMap(10);
  ShardedEdgeStore store;
  store.Reset(2, 0.01);
  ApplyToAllShards(store, 1.0,
                   {{0, 2},   // within shard 0
                    {1, 3},   // within shard 1
                    {0, 1}},  // cross-shard: replicated to both
                   map);
  EXPECT_EQ(store.shard(0).size(), 2u);  // {0,2} and {0,1}
  EXPECT_EQ(store.shard(1).size(), 2u);  // {1,3} and {0,1}
  // Replicas counted once: 3 distinct undirected edges.
  EXPECT_EQ(store.SizeUnique(map), 3u);
}

TEST(ShardedEdgeStoreTest, ReplicasDecayAndDropInLockstep) {
  ShardMap map = ParityMap(4);
  ShardedEdgeStore store;
  store.Reset(2, 0.5);
  ApplyToAllShards(store, 1.0, {{0, 1}}, map);  // cross-shard, weight 1.0
  EXPECT_FALSE(store.empty());
  // One decay tick to 0.6: both replicas still alive.
  ApplyToAllShards(store, 0.6, {}, map);
  EXPECT_EQ(store.shard(0).size(), 1u);
  EXPECT_EQ(store.shard(1).size(), 1u);
  // Next tick pushes 0.6 -> 0.36 below min_weight on both replicas at
  // once — the identical-history property that keeps them consistent.
  ApplyToAllShards(store, 0.6, {}, map);
  EXPECT_EQ(store.shard(0).size(), 0u);
  EXPECT_EQ(store.shard(1).size(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.SizeUnique(map), 0u);
}

TEST(ShardedEdgeStoreTest, ApplyBatchDecaysBeforeAccumulating) {
  ShardMap map = ParityMap(4);
  ShardedEdgeStore store;
  store.Reset(2, 0.01);
  ApplyToAllShards(store, 1.0, {{0, 2}}, map);
  // Decay 0.5 then +1: the batch's own co-occurrence carries full weight.
  ApplyToShard(store, 0, 0.5, {{0, 2}, {1, 3}}, map);
  ASSERT_EQ(store.shard(0).size(), 1u);  // {1,3} belongs to shard 1 only
  EXPECT_DOUBLE_EQ(store.shard(0).EdgeWeight(0, 2), 1.5);
  EXPECT_EQ(store.shard(1).size(), 0u);  // shard 1 not stepped yet
}

TEST(ShardedEdgeStoreTest, VersionSumsReplicas) {
  ShardMap map = ParityMap(4);
  ShardedEdgeStore store;
  store.Reset(2, 0.01);
  const uint64_t v0 = store.version();
  const uint64_t s1 = store.shard(1).version();
  ApplyToAllShards(store, 1.0, {{0, 2}}, map);  // bumps shard 0 only
  const uint64_t v1 = store.version();
  EXPECT_GT(v1, v0);
  EXPECT_EQ(store.shard(1).version(), s1);
  ApplyToAllShards(store, 1.0, {{0, 1}}, map);  // bumps both replicas
  EXPECT_GT(store.version(), v1);
  EXPECT_GT(store.shard(1).version(), s1);
}

}  // namespace
}  // namespace actor
