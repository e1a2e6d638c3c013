#include "graph/heterograph.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace actor {

VertexId Heterograph::AddVertex(VertexType type, std::string name) {
  const VertexId id = static_cast<VertexId>(types_.size());
  types_.push_back(type);
  names_.push_back(std::move(name));
  by_type_[static_cast<int>(type)].push_back(id);
  return id;
}

Status Heterograph::AccumulateEdge(VertexId u, VertexId v, double weight) {
  if (finalized_) {
    return Status::FailedPrecondition("graph is finalized");
  }
  if (u < 0 || v < 0 || u >= num_vertices() || v >= num_vertices()) {
    return Status::InvalidArgument(
        StrPrintf("vertex id out of range: %d, %d", u, v));
  }
  if (u == v) {
    return Status::InvalidArgument("self-loops are not allowed");
  }
  // Written so NaN fails too; +inf would poison the alias table's sums.
  if (!(weight > 0.0) || !std::isfinite(weight)) {
    return Status::InvalidArgument("edge weight must be positive and finite");
  }
  ACTOR_ASSIGN_OR_RETURN(EdgeType type,
                         EdgeTypeBetween(types_[u], types_[v]));
  accum_[static_cast<int>(type)][PackKey(u, v)] += weight;
  return Status::OK();
}

Status Heterograph::Finalize() {
  if (finalized_) {
    return Status::FailedPrecondition("graph already finalized");
  }
  const int32_t n = num_vertices();
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    auto& accum = accum_[e];
    DirectedEdges& de = edges_[e];
    de.src.reserve(accum.size() * 2);
    de.dst.reserve(accum.size() * 2);
    de.weight.reserve(accum.size() * 2);

    std::vector<int64_t> out_count(n, 0);
    for (const auto& [key, w] : accum) {
      const VertexId a = static_cast<VertexId>(key >> 32);
      const VertexId b = static_cast<VertexId>(key & 0xffffffffULL);
      de.src.push_back(a);
      de.dst.push_back(b);
      de.weight.push_back(w);
      de.src.push_back(b);
      de.dst.push_back(a);
      de.weight.push_back(w);
      ++out_count[a];
      ++out_count[b];
    }

    // CSR adjacency from the directed edge list.
    Csr& csr = adj_[e];
    csr.offsets.assign(n + 1, 0);
    for (int32_t v = 0; v < n; ++v) {
      csr.offsets[v + 1] = csr.offsets[v] + out_count[v];
    }
    const int64_t total = csr.offsets[n];
    csr.neighbors.resize(total);
    csr.weights.resize(total);
    std::vector<int64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
    for (std::size_t i = 0; i < de.size(); ++i) {
      const VertexId s = de.src[i];
      const int64_t pos = cursor[s]++;
      csr.neighbors[pos] = de.dst[i];
      csr.weights[pos] = de.weight[i];
    }

    degree_[e].assign(n, 0.0);
    for (std::size_t i = 0; i < de.size(); ++i) {
      degree_[e][de.src[i]] += de.weight[i];
    }
    accum.clear();

    // Post-build consistency: every directed edge connects endpoint types
    // matching its edge type, the CSR cursors land exactly on the next
    // row's offset, and weighted degrees are finite and non-negative.
    if constexpr (kDebugChecksEnabled) {
      for (std::size_t i = 0; i < de.size(); ++i) {
        auto derived = EdgeTypeBetween(types_[de.src[i]], types_[de.dst[i]]);
        ACTOR_DCHECK(derived.ok() &&
                     *derived == static_cast<EdgeType>(e))
            << "edge (" << de.src[i] << ", " << de.dst[i]
            << ") stored under edge type " << e;
        ACTOR_DCHECK(de.weight[i] > 0.0) << "edge " << i << " weight";
      }
      for (int32_t v = 0; v < n; ++v) {
        ACTOR_DCHECK(cursor[v] == csr.offsets[v + 1])
            << "CSR row " << v << " under-filled for edge type " << e;
        ACTOR_DCHECK_FINITE(degree_[e][v]);
        ACTOR_DCHECK(degree_[e][v] >= 0.0) << "degree of vertex " << v;
      }
    }
  }
  finalized_ = true;
  return Status::OK();
}

const std::vector<VertexId>& Heterograph::VerticesOfType(
    VertexType type) const {
  return by_type_[static_cast<int>(type)];
}

const Heterograph::DirectedEdges& Heterograph::edges(EdgeType type) const {
  ACTOR_CHECK(finalized_) << "edges() requires Finalize()";
  return edges_[static_cast<int>(type)];
}

std::span<const VertexId> Heterograph::Neighbors(EdgeType type,
                                                 VertexId v) const {
  ACTOR_CHECK(finalized_) << "Neighbors() requires Finalize()";
  const Csr& csr = adj_[static_cast<int>(type)];
  const int64_t begin = csr.offsets[v];
  const int64_t end = csr.offsets[v + 1];
  return {csr.neighbors.data() + begin, static_cast<std::size_t>(end - begin)};
}

std::span<const double> Heterograph::NeighborWeights(EdgeType type,
                                                     VertexId v) const {
  ACTOR_CHECK(finalized_) << "NeighborWeights() requires Finalize()";
  const Csr& csr = adj_[static_cast<int>(type)];
  const int64_t begin = csr.offsets[v];
  const int64_t end = csr.offsets[v + 1];
  return {csr.weights.data() + begin, static_cast<std::size_t>(end - begin)};
}

double Heterograph::Degree(EdgeType type, VertexId v) const {
  ACTOR_CHECK(finalized_) << "Degree() requires Finalize()";
  ACTOR_DCHECK(v >= 0 && v < num_vertices()) << "vertex id " << v;
  return degree_[static_cast<int>(type)][v];
}

double Heterograph::EdgeWeight(VertexId u, VertexId v) const {
  ACTOR_CHECK(finalized_) << "EdgeWeight() requires Finalize()";
  if (u == v) return 0.0;
  auto type_result = EdgeTypeBetween(types_[u], types_[v]);
  if (!type_result.ok()) return 0.0;
  const auto neighbors = Neighbors(*type_result, u);
  const auto weights = NeighborWeights(*type_result, u);
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (neighbors[i] == v) return weights[i];
  }
  return 0.0;
}

int64_t Heterograph::num_directed_edges() const {
  ACTOR_CHECK(finalized_) << "num_directed_edges() requires Finalize()";
  int64_t total = 0;
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    total += static_cast<int64_t>(edges_[e].size());
  }
  return total;
}

}  // namespace actor
