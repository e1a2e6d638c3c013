#include "graph/graph_io.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <unordered_set>

#include "util/string_util.h"

namespace actor {
namespace {

Result<VertexType> ParseVertexType(const std::string& s) {
  if (s == "T") return VertexType::kTime;
  if (s == "L") return VertexType::kLocation;
  if (s == "W") return VertexType::kWord;
  if (s == "U") return VertexType::kUser;
  return Status::InvalidArgument("unknown vertex type: " + s);
}

/// A vertex id spanning all of `s`, in [0, max VertexId].
bool ParseVertexId(const std::string& s, VertexId* out) {
  int64_t v = 0;
  if (!ParseInt64(s, &v) || v < 0 ||
      v > std::numeric_limits<VertexId>::max()) {
    return false;
  }
  *out = static_cast<VertexId>(v);
  return true;
}

}  // namespace

Status SaveHeterograph(const Heterograph& graph, const std::string& path) {
  if (!graph.finalized()) {
    return Status::FailedPrecondition("graph must be finalized");
  }
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.precision(17);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    out << "V\t" << v << '\t' << VertexTypeName(graph.vertex_type(v)) << '\t'
        << graph.vertex_name(v) << '\n';
  }
  // Each undirected edge appears twice in the directed arrays; emit once
  // (src < dst).
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    const auto& edges = graph.edges(static_cast<EdgeType>(e));
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges.src[i] < edges.dst[i]) {
        out << "E\t" << edges.src[i] << '\t' << edges.dst[i] << '\t'
            << edges.weight[i] << '\n';
      }
    }
  }
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Heterograph> LoadHeterograph(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  Heterograph graph;
  std::string line;
  std::size_t line_no = 0;
  VertexId next_vertex = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = Split(line, '\t');
    auto malformed = [&](const char* what) {
      return Status::InvalidArgument(
          StrPrintf("%s:%zu: %s", path.c_str(), line_no, what));
    };
    if (fields[0] == "V") {
      if (fields.size() != 4) return malformed("V row needs 4 fields");
      VertexId id = 0;
      if (!ParseVertexId(fields[1], &id)) {
        return malformed("V row has a malformed vertex id");
      }
      if (id != next_vertex) {
        return malformed("vertex ids must be dense and in order");
      }
      ACTOR_ASSIGN_OR_RETURN(VertexType type, ParseVertexType(fields[2]));
      graph.AddVertex(type, fields[3]);
      ++next_vertex;
    } else if (fields[0] == "E") {
      if (fields.size() != 4) return malformed("E row needs 4 fields");
      VertexId src = 0;
      VertexId dst = 0;
      double weight = 0.0;
      if (!ParseVertexId(fields[1], &src) || !ParseVertexId(fields[2], &dst)) {
        return malformed("E row has a malformed vertex id");
      }
      if (!ParseDouble(fields[3], &weight)) {
        return malformed("E row has a malformed weight");
      }
      ACTOR_RETURN_NOT_OK(graph.AccumulateEdge(src, dst, weight));
    } else {
      return malformed("row must start with V or E");
    }
  }
  ACTOR_RETURN_NOT_OK(graph.Finalize());
  return graph;
}

}  // namespace actor
