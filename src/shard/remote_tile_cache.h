#ifndef ACTOR_SHARD_REMOTE_TILE_CACHE_H_
#define ACTOR_SHARD_REMOTE_TILE_CACHE_H_

#include <cstdint>
#include <unordered_map>

#include "core/online_edge_store.h"
#include "embedding/embedding_matrix.h"
#include "graph/types.h"
#include "shard/sharded_matrix.h"
#include "shard/vertex_partitioner.h"
#include "util/logging.h"

namespace actor {

/// Per-shard read-snapshot of the *context* rows of remote vertices the
/// shard's edges touch — the single-machine analogue of DistEmbed's tile
/// exchange. Refreshed at the batch barrier (before the per-shard epochs
/// are dispatched) by copying each remote endpoint's context row from its
/// owner shard; during the epoch the trainer reads AND writes these private
/// copies freely (the positive-context update of a remote vertex lands
/// here), and the deltas are deliberately discarded at the next refresh.
///
/// Freshness contract (docs/sharding.md): a cached row is one batch stale
/// at most — it reflects the owner's state as of the last barrier. Remote
/// context-gradient contributions are dropped rather than pushed back;
/// owners see remote vertices only through their own replicas of the shared
/// edges. This is the staleness/communication trade every parameter-server
/// embedding system makes; here it buys full write isolation, which is what
/// makes sharded training deterministic at any thread count.
///
/// Thread-compatibility: Put() and Refresh() are barrier-only (ingest
/// thread, before the epochs are dispatched); row() / lookups are used by
/// exactly one shard epoch at a time. Slots persist across batches
/// (vertices never disappear), so steady-state refreshes allocate nothing
/// new.
class RemoteTileCache {
 public:
  RemoteTileCache() = default;

  void SetDim(int32_t dim) {
    ACTOR_DCHECK(rows_.rows() == 0) << "SetDim after rows were cached";
    dim_ = dim;
    rows_ = EmbeddingMatrix(0, dim);
  }

  /// Ensures a slot for `v` exists and copies `src` (dim floats) into it.
  /// Barrier-only: may allocate for first-seen vertices.
  void Put(VertexId v, const float* src) {
    ACTOR_DCHECK(dim_ > 0) << "SetDim before Put";
    auto it = slots_.find(v);
    int32_t slot;
    if (it == slots_.end()) {
      slot = rows_.rows();
      rows_.AppendRows(1, nullptr);
      slots_.emplace(v, slot);
    } else {
      slot = it->second;
    }
    rows_.SetRow(slot, src);
  }

  /// Puts the current context row of every endpoint of `store`'s edges
  /// that shard `self` does not own, read from its owner's shard of
  /// `context` — one edge type's part of shard `self`'s tile exchange.
  void Refresh(int self, const OnlineEdgeStore& store, const ShardMap& map,
               const ShardedEmbeddingMatrix& context) {
    const std::vector<VertexId>& src = store.src();
    const std::vector<VertexId>& dst = store.dst();
    for (std::size_t i = 0; i < src.size(); ++i) {
      for (const VertexId v : {src[i], dst[i]}) {
        const int owner = map.owner(v);
        if (owner == self) continue;
        Put(v, context.shard(owner).row(map.local_row(v)));
      }
    }
  }

  /// Hot-path lookup: the private copy of `v`'s context row. `v` must have
  /// been Put() at the last barrier — a miss is a trainer routing bug.
  float* row(VertexId v) {
    auto it = slots_.find(v);
    ACTOR_DCHECK(it != slots_.end()) << "remote tile miss for vertex " << v;
    return rows_.row(it->second);
  }

  bool Contains(VertexId v) const { return slots_.find(v) != slots_.end(); }

  /// Number of distinct remote vertices ever cached.
  std::size_t size() const { return slots_.size(); }

 private:
  int32_t dim_ = 0;
  std::unordered_map<VertexId, int32_t> slots_;
  EmbeddingMatrix rows_;
};

}  // namespace actor

#endif  // ACTOR_SHARD_REMOTE_TILE_CACHE_H_
