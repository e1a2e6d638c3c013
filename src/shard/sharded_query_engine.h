#ifndef ACTOR_SHARD_SHARDED_QUERY_ENGINE_H_
#define ACTOR_SHARD_SHARDED_QUERY_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "data/record.h"
#include "graph/types.h"
#include "serve/query_engine.h"
#include "shard/sharded_snapshot.h"
#include "util/result.h"

namespace actor {

/// Scatter-gather top-k over one immutable ShardedModelSnapshot: the seed
/// is resolved once against the composite's global ShardMapSnapshot (by
/// the flat engine's ResolveQuerySeed step), each
/// shard's flat QueryEngine scores its own rows (sequential or batched —
/// the kernels are unchanged), and the per-shard heads are merged by the
/// same explicit (similarity desc, unit id asc) order the flat engine
/// sorts by. Neighbor ids come back *global*.
///
/// Equivalence contract (locked in by shard_query_engine_test): because
/// every shard scores the same frozen rows the flat engine would (same
/// DotAndNorm2 reduction per row) and ShardMap hands out local ids in
/// global-id order, merging per-shard top-k by (similarity, global id)
/// reproduces the flat engine's result on the gathered matrix exactly —
/// same units, same similarity bits, same order — for any shard count.
///
/// All methods are const and thread-safe; the engine pins the composite
/// snapshot (and through it every per-shard snapshot) for its lifetime, so
/// it can be constructed from ShardedSnapshotStore::Acquire() while the
/// ingest thread keeps publishing.
class ShardedQueryEngine {
 public:
  explicit ShardedQueryEngine(
      std::shared_ptr<const ShardedModelSnapshot> snapshot);

  const ShardedModelSnapshot& snapshot() const { return *snapshot_; }

  /// Top-k units of `result_type` nearest to a geographic point (snapped to
  /// its spatial hotspot via the global resolvers). InvalidArgument for a
  /// NaN/infinite point.
  Result<std::vector<Neighbor>> QueryByLocation(const GeoPoint& location,
                                                VertexType result_type,
                                                int k) const;

  /// Top-k units nearest to an hour-of-day. InvalidArgument for a
  /// NaN/infinite hour.
  Result<std::vector<Neighbor>> QueryByHour(double hour,
                                            VertexType result_type,
                                            int k) const;

  /// Top-k units nearest to a vocabulary word id's unit. Streaming
  /// snapshots resolve word ids, not strings, so like the flat online path
  /// every string keyword reports NotFound.
  Result<std::vector<Neighbor>> QueryByKeyword(const std::string& keyword,
                                               VertexType result_type,
                                               int k) const;

  /// Top-k units of `result_type` by cosine against an arbitrary query
  /// vector. `exclude` is a *global* unit id.
  Result<std::vector<Neighbor>> QueryByVector(
      const float* query, VertexType result_type, int k,
      VertexId exclude = kInvalidVertex) const;

  /// Batched scatter-gather: requests are resolved once globally, scattered
  /// as vector queries through each shard engine's QueryBatch (one blocked
  /// sweep per shard per type block), and merged per request. Results come
  /// back in request order with the same error statuses the flat engine
  /// reports; `BatchQuery::exclude` is global.
  std::vector<Result<std::vector<Neighbor>>> QueryBatch(
      const std::vector<BatchQuery>& queries) const;

 private:
  // The Query-prefixed helpers below are scoring-boundary bodies like the
  // public Query* methods (actor-lint treats them as R10 roots): they may
  // allocate per-request scratch, but nothing reachable beneath them may.

  /// A request in its scorable form (ResolveQuerySeed against the
  /// composite's map; the seed's row and global id filled in as a kVector
  /// request), or the request's error.
  Result<BatchQuery> QueryResolve(const BatchQuery& q) const;

  /// Scatters one resolved vector request to every shard and merges.
  std::vector<Neighbor> QueryScatter(const BatchQuery& q) const;

  /// Per-shard heads -> global top-k, by (similarity desc, global id asc).
  /// `heads[s]` holds shard s's local-id results; ids are remapped here.
  std::vector<Neighbor> QueryMergeHeads(
      std::vector<std::vector<Neighbor>> heads, int k) const;

  /// Center row of a global unit id (owner shard's frozen copy).
  const float* CenterRow(VertexId global) const;

  std::shared_ptr<const ShardedModelSnapshot> snapshot_;
  std::vector<QueryEngine> engines_;  // one per shard
};

}  // namespace actor

#endif  // ACTOR_SHARD_SHARDED_QUERY_ENGINE_H_
