#ifndef ACTOR_SHARD_REMOTE_TILE_CACHE_H_
#define ACTOR_SHARD_REMOTE_TILE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/online_edge_store.h"
#include "embedding/embedding_matrix.h"
#include "graph/types.h"
#include "shard/sharded_edge_store.h"
#include "shard/sharded_matrix.h"
#include "shard/vertex_partitioner.h"
#include "util/logging.h"

namespace actor {

/// Per-shard read-snapshot of the *context* rows of remote vertices the
/// shard's edges touch — the single-machine analogue of DistEmbed's tile
/// exchange. Refreshed at the batch barrier (in the shard's prepare, before
/// the epochs are dispatched) by copying each remote endpoint's context row
/// from its owner shard; during the epoch the trainer reads AND writes
/// these private copies freely (the positive-context update of a remote
/// vertex lands here), and the deltas are deliberately discarded at the
/// next refresh.
///
/// Freshness contract (docs/sharding.md): a cached row is one batch stale
/// at most — it reflects the owner's state as of the last barrier. Remote
/// context-gradient contributions are dropped rather than pushed back;
/// owners see remote vertices only through their own replicas of the shared
/// edges. This is the staleness/communication trade every parameter-server
/// embedding system makes; here it buys full write isolation, which is what
/// makes sharded training deterministic at any thread count.
///
/// Slots are dense: a global-id -> slot array, with a slot per remote
/// vertex ever seen (vertices never disappear). AddSlots() is the only
/// allocating call, made on the ingest thread for the batch's edges before
/// the prepare dispatch; BeginRefresh()/Refresh() then run on the shard
/// pool, allocation-free, and copy each needed slot once per barrier.
///
/// Thread-compatibility: AddSlots() runs on the ingest thread; Refresh()
/// and row() are used by exactly one shard's prepare or epoch at a time.
class RemoteTileCache {
 public:
  RemoteTileCache() = default;

  void SetDim(int32_t dim) {
    ACTOR_DCHECK(rows_.rows() == 0) << "SetDim after rows were cached";
    dim_ = dim;
    rows_ = EmbeddingMatrix(0, dim);
  }

  /// Grow step (ingest thread, may allocate): covers every vertex id the
  /// map holds, and gives a slot to each endpoint of the `lists`' edges
  /// that shard `self` does not own and that has none yet.
  void AddSlots(int self, std::span<const std::vector<BatchEdge>> lists,
                const ShardMap& map) {
    ACTOR_DCHECK(dim_ > 0) << "SetDim before AddSlots";
    const std::size_t vertices =
        static_cast<std::size_t>(map.num_vertices());
    if (vertices > slot_of_.size()) slot_of_.resize(vertices, -1);
    const int32_t old_rows = rows_.rows();
    int32_t rows = old_rows;
    for (const std::vector<BatchEdge>& edges : lists) {
      for (const BatchEdge& edge : edges) {
        for (const VertexId v : {edge.a, edge.b}) {
          int32_t& slot = slot_of_[static_cast<std::size_t>(v)];
          if (slot < 0 && map.owner(v) != self) slot = rows++;
        }
      }
    }
    if (rows == old_rows) return;
    rows_.AppendRows(rows - old_rows, nullptr);
    stamp_.resize(static_cast<std::size_t>(rows), 0);
  }

  /// Starts a barrier: every slot is stale until Refresh() copies it.
  void BeginRefresh() { ++barrier_; }

  /// Copies, once per barrier, the current context row of every endpoint
  /// of `store`'s edges that shard `self` does not own, read from its
  /// owner's shard of `context` — one edge type's part of shard `self`'s
  /// tile exchange. Allocation-free; every such endpoint must have had
  /// AddSlots().
  void Refresh(int self, const OnlineEdgeStore& store, const ShardMap& map,
               const ShardedEmbeddingMatrix& context) {
    const std::span<const VertexId> src = store.src();
    const std::span<const VertexId> dst = store.dst();
    for (std::size_t i = 0; i < src.size(); ++i) {
      for (const VertexId v : {src[i], dst[i]}) {
        const int owner = map.owner(v);
        if (owner == self) continue;
        const int32_t slot = slot_of_[static_cast<std::size_t>(v)];
        ACTOR_DCHECK(slot >= 0) << "no tile slot for remote vertex " << v;
        uint64_t& stamp = stamp_[static_cast<std::size_t>(slot)];
        if (stamp == barrier_) continue;
        stamp = barrier_;
        rows_.SetRow(slot, context.shard(owner).row(map.local_row(v)));
      }
    }
  }

  /// Hot-path lookup: the private copy of `v`'s context row. `v` must have
  /// been refreshed at the last barrier — a miss is a trainer routing bug.
  float* row(VertexId v) {
    ACTOR_DCHECK(Contains(v)) << "remote tile miss for vertex " << v;
    return rows_.row(slot_of_[static_cast<std::size_t>(v)]);
  }

  bool Contains(VertexId v) const {
    return v >= 0 && static_cast<std::size_t>(v) < slot_of_.size() &&
           slot_of_[static_cast<std::size_t>(v)] >= 0;
  }

  /// Number of distinct remote vertices ever given a slot.
  std::size_t size() const { return static_cast<std::size_t>(rows_.rows()); }

 private:
  int32_t dim_ = 0;
  std::vector<int32_t> slot_of_;  // global id -> slot, -1 for none
  std::vector<uint64_t> stamp_;   // slot -> barrier of its last copy
  uint64_t barrier_ = 0;
  EmbeddingMatrix rows_;
};

}  // namespace actor

#endif  // ACTOR_SHARD_REMOTE_TILE_CACHE_H_
