#include "serve/model_snapshot.h"

#include <utility>

namespace actor {

VertexId UnitResolver::SpatialVertex(const GeoPoint& location) const {
  const NearestHit hit = NearestSpatial(location);
  return hit.index < 0 ? kInvalidVertex : spatial_units[hit.index];
}

VertexId UnitResolver::TemporalVertexAt(double timestamp) const {
  return TemporalVertexAtHour(HourOfDay(timestamp));
}

VertexId UnitResolver::TemporalVertexAtHour(double hour) const {
  const NearestHit hit = NearestTemporal(hour);
  return hit.index < 0 ? kInvalidVertex : temporal_units[hit.index];
}

VertexId UnitResolver::WordVertex(int32_t word_id) const {
  const auto it = word_units.find(word_id);
  return it == word_units.end() ? kInvalidVertex : it->second;
}

std::shared_ptr<const ModelSnapshot::CatalogState>
ModelSnapshot::MakeCatalogState(OnlineCatalog catalog) {
  auto state = std::make_shared<CatalogState>();
  state->catalog = std::move(catalog);
  for (std::size_t v = 0; v < state->catalog.types.size(); ++v) {
    state->of_type[static_cast<int>(state->catalog.types[v])].push_back(
        static_cast<VertexId>(v));
  }
  return state;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::FromBatch(
    const EmbeddingMatrix& center, const EmbeddingMatrix* context,
    std::shared_ptr<const BuiltGraphs> graphs,
    std::shared_ptr<const Hotspots> hotspots,
    std::shared_ptr<const Vocabulary> vocab, uint64_t version) {
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snap->version_ = version;
  snap->center_ = ChunkedMatrix::FullCopy(center);
  if (context != nullptr) {
    snap->context_ =
        std::make_unique<ChunkedMatrix>(ChunkedMatrix::FullCopy(*context));
  }
  snap->graphs_ = std::move(graphs);
  snap->hotspots_ = std::move(hotspots);
  snap->vocab_ = std::move(vocab);
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::FromOnline(
    const EmbeddingMatrix& center, OnlineCatalog catalog, uint64_t version) {
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snap->version_ = version;
  snap->center_ = ChunkedMatrix::FullCopy(center);
  snap->online_ = MakeCatalogState(std::move(catalog));
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::FromOnlineDelta(
    const EmbeddingMatrix& center, uint64_t version,
    const std::shared_ptr<const ModelSnapshot>& prev,
    const DirtyRowSet& dirty) {
  ACTOR_DCHECK(prev != nullptr && prev->graphs_ == nullptr)
      << "delta publish needs a previous online snapshot";
  ACTOR_DCHECK(prev->num_units() == center.rows())
      << "catalogue sharing requires an unchanged unit set ("
      << prev->num_units() << " vs " << center.rows() << " rows)";
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snap->version_ = version;
  snap->center_ = ChunkedMatrix::DeltaCopy(center, prev->center_, dirty);
  snap->online_ = prev->online_;  // unit set unchanged — share outright
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::FromOnlineDelta(
    const EmbeddingMatrix& center, uint64_t version,
    const std::shared_ptr<const ModelSnapshot>& prev,
    const DirtyRowSet& dirty, OnlineCatalog catalog) {
  ACTOR_DCHECK(prev != nullptr && prev->graphs_ == nullptr)
      << "delta publish needs a previous online snapshot";
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snap->version_ = version;
  snap->center_ = ChunkedMatrix::DeltaCopy(center, prev->center_, dirty);
  snap->online_ = MakeCatalogState(std::move(catalog));
  return snap;
}

const std::vector<VertexId>& ModelSnapshot::VerticesOfType(
    VertexType type) const {
  if (graphs_ != nullptr) return graphs_->activity.VerticesOfType(type);
  return online_->of_type[static_cast<int>(type)];
}

VertexType ModelSnapshot::vertex_type(VertexId v) const {
  if (graphs_ != nullptr) return graphs_->activity.vertex_type(v);
  return online_->catalog.types[static_cast<std::size_t>(v)];
}

const std::string& ModelSnapshot::vertex_name(VertexId v) const {
  if (graphs_ != nullptr) return graphs_->activity.vertex_name(v);
  return online_->catalog.names[static_cast<std::size_t>(v)];
}

VertexId ModelSnapshot::SpatialVertex(const GeoPoint& location) const {
  if (graphs_ != nullptr) {
    const int32_t h = hotspots_->spatial.Assign(location);
    return h < 0 ? kInvalidVertex : graphs_->spatial_vertices[h];
  }
  return online_->catalog.resolver.SpatialVertex(location);
}

VertexId ModelSnapshot::TemporalVertexAt(double timestamp) const {
  return TemporalVertexAtHour(HourOfDay(timestamp));
}

VertexId ModelSnapshot::TemporalVertexAtHour(double hour) const {
  if (graphs_ != nullptr) {
    const int32_t h = hotspots_->temporal.AssignHour(hour);
    return h < 0 ? kInvalidVertex : graphs_->temporal_vertices[h];
  }
  return online_->catalog.resolver.TemporalVertexAtHour(hour);
}

VertexId ModelSnapshot::WordVertex(int32_t word_id) const {
  if (graphs_ != nullptr) {
    if (word_id < 0 ||
        static_cast<std::size_t>(word_id) >= graphs_->word_vertices.size()) {
      return kInvalidVertex;
    }
    return graphs_->word_vertices[static_cast<std::size_t>(word_id)];
  }
  return online_->catalog.resolver.WordVertex(word_id);
}

int32_t ModelSnapshot::LookupWord(const std::string& keyword) const {
  return vocab_ == nullptr ? -1 : vocab_->Lookup(keyword);
}

}  // namespace actor
