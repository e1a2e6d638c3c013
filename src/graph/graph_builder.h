#ifndef ACTOR_GRAPH_GRAPH_BUILDER_H_
#define ACTOR_GRAPH_GRAPH_BUILDER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "data/corpus.h"
#include "graph/heterograph.h"
#include "graph/types.h"
#include "hotspot/hotspot_detector.h"
#include "util/result.h"

namespace actor {

/// The vertex ids of one record's units in the activity graph.
struct RecordUnits {
  VertexId time_unit = kInvalidVertex;
  VertexId location_unit = kInvalidVertex;
  std::vector<VertexId> word_units;
  VertexId author = kInvalidVertex;          // user vertex in activity graph
  std::vector<VertexId> mentioned;           // user vertices
};

/// WW pairs come from a record's first this-many words (quadratic guard).
inline constexpr std::size_t kMaxWordsForPairs = 30;

/// The record -> edge rule of paper Def. 1, shared by BuildGraphs and
/// OnlineActor: calls fn(type, a, b) once per co-occurrence of `units`, in
/// this order: TL; LW and WT for each word; WW among the first
/// kMaxWordsForPairs words; then UT, UL and UW for the author and for each
/// mentioned user (the substrate of M_inter). Self-loops (a repeated word)
/// and invalid ids are skipped. The author-mention UU pair is Def. 2 and
/// stays with the caller.
template <typename Fn>
void ForEachRecordEdge(const RecordUnits& units, Fn&& fn) {
  auto emit = [&fn](EdgeType type, VertexId a, VertexId b) {
    if (a != b && a != kInvalidVertex && b != kInvalidVertex) fn(type, a, b);
  };
  emit(EdgeType::kTL, units.time_unit, units.location_unit);
  for (const VertexId w : units.word_units) {
    emit(EdgeType::kLW, units.location_unit, w);
    emit(EdgeType::kWT, w, units.time_unit);
  }
  const std::size_t n = std::min(units.word_units.size(), kMaxWordsForPairs);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      emit(EdgeType::kWW, units.word_units[i], units.word_units[j]);
    }
  }
  auto user_edges = [&](VertexId user) {
    emit(EdgeType::kUT, user, units.time_unit);
    emit(EdgeType::kUL, user, units.location_unit);
    for (const VertexId w : units.word_units) emit(EdgeType::kUW, user, w);
  };
  user_edges(units.author);
  for (const VertexId m : units.mentioned) user_edges(m);
}

/// Output of graph construction: the two graph layers plus lookup tables.
struct BuiltGraphs {
  Heterograph activity;    // T/L/W/U vertices; TL/LW/WT/WW/UT/UW/UL edges
  Heterograph user_graph;  // U vertices; UU mention edges (Def. 2)

  /// Temporal hotspot id -> activity-graph vertex.
  std::vector<VertexId> temporal_vertices;
  /// Spatial hotspot id -> activity-graph vertex.
  std::vector<VertexId> spatial_vertices;
  /// Vocabulary word id -> activity-graph vertex (kInvalidVertex when the
  /// word never survived into the graph).
  std::vector<VertexId> word_vertices;
  /// User id -> user vertex in the activity graph.
  std::unordered_map<int64_t, VertexId> activity_users;
  /// User id -> vertex in the user interaction graph.
  std::unordered_map<int64_t, VertexId> interaction_users;
  /// Per-record unit ids, aligned with the corpus record order.
  std::vector<RecordUnits> record_units;
};

/// Constructs the activity graph and user interaction graph from a
/// tokenized corpus and its detected hotspots. Edge weights are
/// co-occurrence counts (activity graph) and mention counts (user graph).
/// Both graphs are returned finalized.
Result<BuiltGraphs> BuildGraphs(const TokenizedCorpus& corpus,
                                const Hotspots& hotspots);

}  // namespace actor

#endif  // ACTOR_GRAPH_GRAPH_BUILDER_H_
