#include "core/model_io.h"

#include <charconv>
#include <filesystem>
#include <fstream>

#include "serve/query_engine.h"
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

}  // namespace

Status SaveActorModel(const ActorModel& model, const BuiltGraphs& graphs,
                      const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);
  if (model.center.rows() != graphs.activity.num_vertices()) {
    return Status::InvalidArgument(
        "model rows do not match the activity graph vertex count");
  }
  ACTOR_RETURN_NOT_OK(model.center.Save(dir + "/center.txt"));
  ACTOR_RETURN_NOT_OK(model.context.Save(dir + "/context.txt"));

  std::ofstream out(dir + "/vertices.tsv");
  if (!out) return Status::IOError("cannot write vertices.tsv in " + dir);
  for (VertexId v = 0; v < graphs.activity.num_vertices(); ++v) {
    out << v << '\t' << VertexTypeName(graphs.activity.vertex_type(v))
        << '\t' << graphs.activity.vertex_name(v) << '\n';
  }
  if (!out.good()) return Status::IOError("write failed: vertices.tsv");
  return Status::OK();
}

Result<LoadedModel> LoadedModel::Load(const std::string& dir) {
  LoadedModel model;
  ACTOR_ASSIGN_OR_RETURN(EmbeddingMatrix center,
                         EmbeddingMatrix::Load(dir + "/center.txt"));
  ACTOR_ASSIGN_OR_RETURN(model.context_,
                         EmbeddingMatrix::Load(dir + "/context.txt"));
  if (center.rows() != model.context_.rows() ||
      center.dim() != model.context_.dim()) {
    return Status::InvalidArgument(
        "center/context shapes disagree in " + dir);
  }

  std::ifstream in(dir + "/vertices.tsv");
  if (!in) return Status::IOError("cannot read vertices.tsv in " + dir);
  ModelSnapshot::OnlineCatalog catalog;
  catalog.types.resize(static_cast<std::size_t>(center.rows()));
  catalog.names.resize(static_cast<std::size_t>(center.rows()));
  std::vector<bool> seen(static_cast<std::size_t>(center.rows()));
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = Split(line, '\t');
    if (fields.size() != 3) {
      return Status::InvalidArgument("malformed vertices.tsv row: " + line);
    }
    // The id must be the whole field: "12abc" or "" is a garbled row, not
    // vertex 12 or 0.
    const std::string& id = fields[0];
    VertexId v = kInvalidVertex;
    const auto [end, ec] = std::from_chars(id.data(), id.data() + id.size(), v);
    if (id.empty() || ec != std::errc() || end != id.data() + id.size()) {
      return Status::InvalidArgument("malformed vertex id in vertices.tsv: " +
                                     line);
    }
    if (v < 0 || v >= center.rows()) {
      return Status::OutOfRange("vertex id out of range in vertices.tsv");
    }
    // A duplicated id would pass the row-count check below while leaving
    // some other row with a default type and an empty name.
    const auto slot = static_cast<std::size_t>(v);
    if (seen[slot]) {
      return Status::InvalidArgument(
          StrPrintf("duplicate vertex id %d in vertices.tsv", v));
    }
    seen[slot] = true;
    ACTOR_ASSIGN_OR_RETURN(catalog.types[slot], ParseVertexType(fields[1]));
    catalog.names[slot] = fields[2];
    model.index_[fields[2]] = v;
    ++rows;
  }
  if (rows != static_cast<std::size_t>(center.rows())) {
    return Status::InvalidArgument(StrPrintf(
        "vertices.tsv has %zu rows but the matrix has %d", rows,
        center.rows()));
  }
  // The snapshot copies the rows into its chunks; the parsed matrix is
  // released on return, so the loaded model keeps one copy.
  model.snapshot_ =
      ModelSnapshot::FromOnline(center, std::move(catalog), /*version=*/0);
  return model;
}

VertexId LoadedModel::Lookup(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kInvalidVertex : it->second;
}

std::vector<std::pair<VertexId, double>> LoadedModel::NearestOfType(
    VertexId query, VertexType type, int k) const {
  std::vector<std::pair<VertexId, double>> results;
  auto nearest = QueryEngine(snapshot_).QueryByVector(center().row(query),
                                                      type, k, query);
  if (!nearest.ok()) return results;  // k <= 0
  for (const Neighbor& n : *nearest) {
    results.emplace_back(n.vertex, n.similarity);
  }
  return results;
}

}  // namespace actor
