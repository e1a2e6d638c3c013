#ifndef ACTOR_GRAPH_HETEROGRAPH_H_
#define ACTOR_GRAPH_HETEROGRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/types.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/status.h"

namespace actor {

/// A typed undirected weighted multigraph used for both the activity graph
/// (Def. 1) and the user interaction graph (Def. 2).
///
/// Construction happens in two phases: AccumulateEdge() sums co-occurrence
/// weights into a hash map ("the edge weight is set to be the co-occurrence
/// count"); Finalize() freezes the graph into per-edge-type directed edge
/// arrays and CSR adjacency. Each undirected edge {u, v} becomes the two
/// directed edges (u, v) and (v, u), matching the LINE-style treatment
/// where either endpoint can act as the center vertex.
class Heterograph {
 public:
  Heterograph() = default;

  // Move-only: adjacency arrays can be large.
  Heterograph(Heterograph&&) = default;
  Heterograph& operator=(Heterograph&&) = default;
  Heterograph(const Heterograph&) = delete;
  Heterograph& operator=(const Heterograph&) = delete;

  /// Adds a vertex and returns its dense id. `name` is the human-readable
  /// unit label (a keyword, "T3", "L17", "user42").
  VertexId AddVertex(VertexType type, std::string name);

  /// Adds `weight` to the undirected edge {u, v}. The edge type is derived
  /// from the endpoint vertex types. Self-loops and weights that are not
  /// positive and finite are rejected. Fails after Finalize().
  Status AccumulateEdge(VertexId u, VertexId v, double weight = 1.0);

  /// Freezes the graph. Idempotent-fails: calling twice is an error.
  Status Finalize();

  bool finalized() const { return finalized_; }

  int32_t num_vertices() const { return static_cast<int32_t>(types_.size()); }
  VertexType vertex_type(VertexId v) const {
    ACTOR_DCHECK(v >= 0 && v < num_vertices()) << "vertex id " << v;
    return types_[v];
  }
  const std::string& vertex_name(VertexId v) const {
    ACTOR_DCHECK(v >= 0 && v < num_vertices()) << "vertex id " << v;
    return names_[v];
  }

  /// All vertices of the given type, in id order.
  const std::vector<VertexId>& VerticesOfType(VertexType type) const;

  /// Directed edges of one type (both orientations of every undirected
  /// edge). Valid after Finalize().
  struct DirectedEdges {
    std::vector<VertexId> src;
    std::vector<VertexId> dst;
    std::vector<double> weight;
    std::size_t size() const { return src.size(); }
  };
  const DirectedEdges& edges(EdgeType type) const;

  /// Neighbors of `v` through edges of `type` (valid after Finalize()).
  std::span<const VertexId> Neighbors(EdgeType type, VertexId v) const;
  std::span<const double> NeighborWeights(EdgeType type, VertexId v) const;

  /// Weighted degree d_v^e of `v` within edge type `type` (Eq. (3)).
  double Degree(EdgeType type, VertexId v) const;

  /// Weight of the undirected edge {u, v}; 0 if absent (first-order
  /// proximity, Def. 3).
  double EdgeWeight(VertexId u, VertexId v) const;

  /// Total number of directed edges across all types.
  int64_t num_directed_edges() const;

 private:
  struct Csr {
    std::vector<int64_t> offsets;  // size num_vertices + 1
    std::vector<VertexId> neighbors;
    std::vector<double> weights;
  };

  static uint64_t PackKey(VertexId u, VertexId v) {
    // Unordered: smaller id in the high half.
    const uint64_t a = static_cast<uint32_t>(u < v ? u : v);
    const uint64_t b = static_cast<uint32_t>(u < v ? v : u);
    return (a << 32) | b;
  }

  bool finalized_ = false;
  std::vector<VertexType> types_;
  std::vector<std::string> names_;
  std::vector<VertexId> by_type_[kNumVertexTypes];

  // Build phase.
  std::unordered_map<uint64_t, double> accum_[kNumEdgeTypes];

  // Finalized phase.
  DirectedEdges edges_[kNumEdgeTypes];
  Csr adj_[kNumEdgeTypes];
  std::vector<double> degree_[kNumEdgeTypes];
};

}  // namespace actor

#endif  // ACTOR_GRAPH_HETEROGRAPH_H_
