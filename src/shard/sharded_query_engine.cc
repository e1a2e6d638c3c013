#include "shard/sharded_query_engine.h"

#include <algorithm>
#include <utility>

namespace actor {

ShardedQueryEngine::ShardedQueryEngine(
    std::shared_ptr<const ShardedModelSnapshot> snapshot)
    : snapshot_(std::move(snapshot)) {
  ACTOR_DCHECK(snapshot_ != nullptr);
  engines_.reserve(static_cast<std::size_t>(snapshot_->num_shards()));
  for (int s = 0; s < snapshot_->num_shards(); ++s) {
    engines_.emplace_back(snapshot_->shard(s));
  }
}

const float* ShardedQueryEngine::CenterRow(VertexId global) const {
  const ShardMapSnapshot& map = snapshot_->map();
  ACTOR_DCHECK(global >= 0 && global < map.num_vertices());
  const int s = map.owner[static_cast<std::size_t>(global)];
  return snapshot_->shard(s)->center().row(
      map.local[static_cast<std::size_t>(global)]);
}

std::vector<Neighbor> ShardedQueryEngine::QueryMergeHeads(
    std::vector<std::vector<Neighbor>> heads, int k) const {
  const ShardMapSnapshot& map = snapshot_->map();
  std::vector<Neighbor> merged;
  std::size_t total = 0;
  for (const auto& head : heads) total += head.size();
  merged.reserve(total);
  for (int s = 0; s < static_cast<int>(heads.size()); ++s) {
    for (Neighbor& n : heads[static_cast<std::size_t>(s)]) {
      n.vertex = map.globals[static_cast<std::size_t>(s)]
                            [static_cast<std::size_t>(n.vertex)];
      merged.push_back(std::move(n));
    }
  }
  // The same explicit total order the flat engine sorts by; per-shard local
  // order agrees with global order (ShardMap's order-preserving local ids),
  // so the merged head of S per-shard top-k lists IS the global top-k.
  std::sort(merged.begin(), merged.end(), RanksBefore);
  if (merged.size() > static_cast<std::size_t>(k)) merged.resize(k);
  return merged;
}

std::vector<Neighbor> ShardedQueryEngine::QueryScatter(
    const BatchQuery& q) const {
  const ShardMapSnapshot& map = snapshot_->map();
  std::vector<std::vector<Neighbor>> heads(
      static_cast<std::size_t>(snapshot_->num_shards()));
  for (int s = 0; s < snapshot_->num_shards(); ++s) {
    VertexId local_exclude = kInvalidVertex;
    if (q.exclude != kInvalidVertex &&
        map.owner[static_cast<std::size_t>(q.exclude)] == s) {
      local_exclude = map.local[static_cast<std::size_t>(q.exclude)];
    }
    // The request was resolved (k > 0) by the caller, so the per-shard
    // query cannot fail (debug-asserted inside MoveValueUnchecked).
    auto head = engines_[static_cast<std::size_t>(s)].QueryByVector(
        q.vector, q.result_type, q.k, local_exclude);
    heads[static_cast<std::size_t>(s)] = head.MoveValueUnchecked();
  }
  return QueryMergeHeads(std::move(heads), q.k);
}

Result<BatchQuery> ShardedQueryEngine::QueryResolve(
    const BatchQuery& q) const {
  ACTOR_ASSIGN_OR_RETURN(const VertexId seed,
                         ResolveQuerySeed(snapshot_->map(), q));
  if (seed == kInvalidVertex) return q;
  return BatchQuery::Vector(CenterRow(seed), q.result_type, q.k, seed);
}

Result<std::vector<Neighbor>> ShardedQueryEngine::QueryByVector(
    const float* query, VertexType result_type, int k,
    VertexId exclude) const {
  ACTOR_ASSIGN_OR_RETURN(
      const BatchQuery q,
      QueryResolve(BatchQuery::Vector(query, result_type, k, exclude)));
  return QueryScatter(q);
}

Result<std::vector<Neighbor>> ShardedQueryEngine::QueryByLocation(
    const GeoPoint& location, VertexType result_type, int k) const {
  ACTOR_ASSIGN_OR_RETURN(
      const BatchQuery q,
      QueryResolve(BatchQuery::Location(location, result_type, k)));
  return QueryScatter(q);
}

Result<std::vector<Neighbor>> ShardedQueryEngine::QueryByHour(
    double hour, VertexType result_type, int k) const {
  ACTOR_ASSIGN_OR_RETURN(const BatchQuery q,
                         QueryResolve(BatchQuery::Hour(hour, result_type, k)));
  return QueryScatter(q);
}

Result<std::vector<Neighbor>> ShardedQueryEngine::QueryByKeyword(
    const std::string& keyword, VertexType result_type, int k) const {
  ACTOR_ASSIGN_OR_RETURN(
      const BatchQuery q,
      QueryResolve(BatchQuery::Keyword(keyword, result_type, k)));
  return QueryScatter(q);
}

std::vector<Result<std::vector<Neighbor>>> ShardedQueryEngine::QueryBatch(
    const std::vector<BatchQuery>& queries) const {
  const ShardMapSnapshot& map = snapshot_->map();
  const std::size_t b = queries.size();
  const int num_shards = snapshot_->num_shards();

  // Per-request resolution through the same step as the sequential entry
  // points (and the flat engine), so error statuses match exactly.
  std::vector<Status> errors(b);       // OK marks the request scorable
  std::vector<BatchQuery> scatter;     // global-exclude vector queries
  for (std::size_t i = 0; i < b; ++i) {
    Result<BatchQuery> q = QueryResolve(queries[i]);
    if (!q.ok()) {
      errors[i] = q.status();
      continue;
    }
    scatter.push_back(q.MoveValueUnchecked());
  }

  // Scatter: every shard scores the same slot list through its flat
  // batched path (one blocked sweep per populated type block per shard).
  std::vector<std::vector<Result<std::vector<Neighbor>>>> shard_results(
      static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    std::vector<BatchQuery> local = scatter;
    for (BatchQuery& q : local) {
      if (q.exclude == kInvalidVertex) continue;
      q.exclude = map.owner[static_cast<std::size_t>(q.exclude)] == s
                      ? map.local[static_cast<std::size_t>(q.exclude)]
                      : kInvalidVertex;
    }
    shard_results[static_cast<std::size_t>(s)] =
        engines_[static_cast<std::size_t>(s)].QueryBatch(local);
  }

  // Gather: merge each request's per-shard heads in request order.
  std::vector<Result<std::vector<Neighbor>>> out;
  out.reserve(b);
  std::size_t slot = 0;
  for (std::size_t i = 0; i < b; ++i) {
    if (!errors[i].ok()) {
      out.push_back(errors[i]);
      continue;
    }
    std::vector<std::vector<Neighbor>> heads(
        static_cast<std::size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      // Scatter slots are pre-validated vector queries, so the per-shard
      // result cannot be an error (debug-asserted in MoveValueUnchecked).
      auto& r = shard_results[static_cast<std::size_t>(s)][slot];
      heads[static_cast<std::size_t>(s)] = r.MoveValueUnchecked();
    }
    out.push_back(QueryMergeHeads(std::move(heads), queries[i].k));
    ++slot;
  }
  return out;
}

}  // namespace actor
