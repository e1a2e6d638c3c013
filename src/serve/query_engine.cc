#include "serve/query_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "util/vec_math.h"

namespace actor {

BatchQuery BatchQuery::Location(const GeoPoint& location,
                                VertexType result_type, int k) {
  BatchQuery q;
  q.kind = Kind::kLocation;
  q.location = location;
  q.result_type = result_type;
  q.k = k;
  return q;
}

BatchQuery BatchQuery::Hour(double hour, VertexType result_type, int k) {
  BatchQuery q;
  q.kind = Kind::kHour;
  q.hour = hour;
  q.result_type = result_type;
  q.k = k;
  return q;
}

BatchQuery BatchQuery::Keyword(std::string keyword, VertexType result_type,
                               int k) {
  BatchQuery q;
  q.kind = Kind::kKeyword;
  q.keyword = std::move(keyword);
  q.result_type = result_type;
  q.k = k;
  return q;
}

BatchQuery BatchQuery::Vector(const float* query, VertexType result_type,
                              int k, VertexId exclude) {
  BatchQuery q;
  q.kind = Kind::kVector;
  q.vector = query;
  q.result_type = result_type;
  q.k = k;
  q.exclude = exclude;
  return q;
}

QueryEngine::QueryEngine(std::shared_ptr<const ModelSnapshot> snapshot)
    : snapshot_(std::move(snapshot)) {}

Result<BatchQuery> QueryEngine::QueryResolve(const BatchQuery& q) const {
  ACTOR_ASSIGN_OR_RETURN(const VertexId seed,
                         ResolveQuerySeed(*snapshot_, q));
  if (seed == kInvalidVertex) return q;
  return BatchQuery::Vector(snapshot_->center().row(seed), q.result_type,
                            q.k, seed);
}

std::vector<Neighbor> QueryEngine::QueryScan(const BatchQuery& q) const {
  const ModelSnapshot& snap = *snapshot_;
  const ChunkedMatrix& center = snap.center();
  const std::size_t dim = static_cast<std::size_t>(center.dim());
  // One query against the whole type block: the query norm is fixed, so it
  // is computed once here instead of once per row inside Cosine(). The
  // per-row work is a single fused pass (dot + candidate norm).
  const float query_norm = Norm2(q.vector, dim);
  std::vector<Neighbor> results;
  for (VertexId v : snap.VerticesOfType(q.result_type)) {
    if (v == q.exclude) continue;
    float dot = 0.0f;
    float norm2 = 0.0f;
    DotAndNorm2(q.vector, center.row(v), dim, &dot, &norm2);
    const float row_norm = std::sqrt(norm2);
    Neighbor n;
    n.vertex = v;
    n.similarity = (query_norm == 0.0f || row_norm == 0.0f)
                       ? 0.0f
                       : dot / (query_norm * row_norm);
    results.push_back(std::move(n));
  }
  return QueryTopK(std::move(results), q.k);
}

std::vector<Neighbor> QueryEngine::QueryTopK(std::vector<Neighbor> candidates,
                                             int k) const {
  const ModelSnapshot& snap = *snapshot_;
  const std::size_t keep = std::min<std::size_t>(k, candidates.size());
  // Ties break toward the lower unit id, making the top-k *set* a pure
  // function of (snapshot, query, k) rather than of candidate scan order —
  // the property the sharded scatter-gather merge needs to reproduce this
  // result exactly from per-shard heads (docs/sharding.md).
  std::partial_sort(candidates.begin(), candidates.begin() + keep,
                    candidates.end(), RanksBefore);
  candidates.resize(keep);
  for (auto& n : candidates) {
    n.name = snap.vertex_name(n.vertex);
    n.type = snap.vertex_type(n.vertex);
  }
  return candidates;
}

std::vector<Result<std::vector<Neighbor>>> QueryEngine::QueryBatch(
    const std::vector<BatchQuery>& queries) const {
  const ModelSnapshot& snap = *snapshot_;
  const ChunkedMatrix& center = snap.center();
  const std::size_t dim = static_cast<std::size_t>(center.dim());
  const std::size_t b = queries.size();

  // Per-request resolution through the same step as the sequential entry
  // points, so error statuses match QueryBy*() exactly.
  struct Resolved {
    const float* query = nullptr;
    float query_norm = 0.0f;
    VertexId exclude = kInvalidVertex;
  };
  std::vector<Resolved> resolved(b);
  std::vector<Status> errors(b);  // OK marks the request scorable
  std::vector<std::vector<Neighbor>> candidates(b);
  std::array<std::vector<std::size_t>, kNumVertexTypes> groups;
  for (std::size_t i = 0; i < b; ++i) {
    const Result<BatchQuery> q = QueryResolve(queries[i]);
    if (!q.ok()) {
      errors[i] = q.status();
      continue;
    }
    Resolved& r = resolved[i];
    r.query = q->vector;
    r.exclude = q->exclude;
    r.query_norm = Norm2(r.query, dim);
    groups[static_cast<std::size_t>(q->result_type)].push_back(i);
  }

  // One sweep per populated type block: each candidate row streams through
  // the blocked kernel once for the whole group. Computing a dot the
  // sequential path would skip (a row excluded by one group member) is
  // harmless — the value is simply not pushed for that member.
  std::vector<const float*> qptrs;
  std::vector<float> dots;
  for (int t = 0; t < kNumVertexTypes; ++t) {
    const std::vector<std::size_t>& group =
        groups[static_cast<std::size_t>(t)];
    if (group.empty()) continue;
    const std::size_t gb = group.size();
    qptrs.resize(gb);
    dots.resize(gb);
    for (std::size_t jj = 0; jj < gb; ++jj) {
      qptrs[jj] = resolved[group[jj]].query;
    }
    for (VertexId v : snap.VerticesOfType(static_cast<VertexType>(t))) {
      float norm2 = 0.0f;
      DotAndNorm2Batch(qptrs.data(), gb, center.row(v), dim, dots.data(),
                       &norm2);
      const float row_norm = std::sqrt(norm2);
      for (std::size_t jj = 0; jj < gb; ++jj) {
        const Resolved& r = resolved[group[jj]];
        if (v == r.exclude) continue;
        Neighbor n;
        n.vertex = v;
        n.similarity = (r.query_norm == 0.0f || row_norm == 0.0f)
                           ? 0.0f
                           : dots[jj] / (r.query_norm * row_norm);
        candidates[group[jj]].push_back(std::move(n));
      }
    }
  }

  // Per-request top-k selection, identical to the sequential tail: same
  // candidate order in, same selection.
  std::vector<Result<std::vector<Neighbor>>> out;
  out.reserve(b);
  for (std::size_t i = 0; i < b; ++i) {
    if (!errors[i].ok()) {
      out.push_back(errors[i]);
      continue;
    }
    out.push_back(QueryTopK(std::move(candidates[i]), queries[i].k));
  }
  return out;
}

Result<std::vector<Neighbor>> QueryEngine::QueryByVector(
    const float* query, VertexType result_type, int k,
    VertexId exclude) const {
  ACTOR_ASSIGN_OR_RETURN(
      const BatchQuery q,
      QueryResolve(BatchQuery::Vector(query, result_type, k, exclude)));
  return QueryScan(q);
}

Result<std::vector<Neighbor>> QueryEngine::QueryByLocation(
    const GeoPoint& location, VertexType result_type, int k) const {
  ACTOR_ASSIGN_OR_RETURN(
      const BatchQuery q,
      QueryResolve(BatchQuery::Location(location, result_type, k)));
  return QueryScan(q);
}

Result<std::vector<Neighbor>> QueryEngine::QueryByHour(
    double hour, VertexType result_type, int k) const {
  ACTOR_ASSIGN_OR_RETURN(const BatchQuery q,
                         QueryResolve(BatchQuery::Hour(hour, result_type, k)));
  return QueryScan(q);
}

Result<std::vector<Neighbor>> QueryEngine::QueryByKeyword(
    const std::string& keyword, VertexType result_type, int k) const {
  ACTOR_ASSIGN_OR_RETURN(
      const BatchQuery q,
      QueryResolve(BatchQuery::Keyword(keyword, result_type, k)));
  return QueryScan(q);
}

}  // namespace actor
