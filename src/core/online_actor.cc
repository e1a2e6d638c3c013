#include "core/online_actor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "embedding/sgd.h"
#include "util/cache_line.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace actor {
namespace {

/// Rejects a batch holding a non-finite location or timestamp.
Status ValidateBatch(const std::vector<TokenizedRecord>& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const TokenizedRecord& rec = batch[i];
    // A NaN coordinate never compares below a hotspot distance, so it would
    // spawn a fresh hotspot per record; an infinite timestamp yields a NaN
    // hour. Either would corrupt the unit catalogue, so reject up front.
    if (!std::isfinite(rec.location.x) || !std::isfinite(rec.location.y) ||
        !std::isfinite(rec.timestamp)) {
      return Status::InvalidArgument(
          StrPrintf("record %zu has a non-finite location or timestamp", i));
    }
  }
  return Status::OK();
}

}  // namespace

Result<OnlineActor> OnlineActor::Create(OnlineActorOptions options) {
  if (options.dim <= 0 || options.negatives < 1) {
    return Status::InvalidArgument("dim and negatives must be positive");
  }
  if (options.decay_per_batch <= 0.0 || options.decay_per_batch > 1.0) {
    return Status::InvalidArgument("decay_per_batch must be in (0, 1]");
  }
  if (options.samples_per_edge_per_batch <= 0.0) {
    return Status::InvalidArgument("samples_per_edge_per_batch must be > 0");
  }
  if (options.min_edge_weight <= 0.0) {
    return Status::InvalidArgument("min_edge_weight must be > 0");
  }
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  OnlineActor model(options);
  model.shards_ = options.num_shards;
  PartitionSpec spec;
  spec.num_shards = model.shards_;
  spec.strategy = options.shard_strategy;
  model.partitioner_ = VertexPartitioner(spec);
  model.map_ = ShardMap(model.shards_);
  model.center_ = ShardedEmbeddingMatrix(model.shards_, options.dim);
  model.context_ = ShardedEmbeddingMatrix(model.shards_, options.dim);
  for (auto& store : model.edges_) {
    store.Reset(model.shards_, options.min_edge_weight);
  }
  for (auto& caches : model.samplers_) {
    caches.resize(static_cast<std::size_t>(model.shards_));
  }
  model.owned_dirty_.resize(static_cast<std::size_t>(model.shards_));
  model.tiles_.resize(static_cast<std::size_t>(model.shards_));
  for (auto& tiles : model.tiles_) tiles.SetDim(options.dim);
  model.epoch_samples_.resize(static_cast<std::size_t>(model.shards_));
  model.batch_edges_.resize(static_cast<std::size_t>(model.shards_));
  model.owned_units_.resize(static_cast<std::size_t>(model.shards_));
  model.prepare_status_.resize(static_cast<std::size_t>(model.shards_));
  model.epoch_grad_ = ShardScratch(static_cast<std::size_t>(model.shards_),
                                   static_cast<std::size_t>(options.dim));
  return model;
}

OnlineActor::OnlineActor(OnlineActorOptions options)
    : options_(options),
      rng_(options.seed),
      runner_(options.num_threads, options.pool),
      snapshots_(std::make_unique<SnapshotStore>()),
      sharded_snapshots_(std::make_unique<ShardedSnapshotStore>()) {}
OnlineActor::~OnlineActor() = default;
OnlineActor::OnlineActor(OnlineActor&&) noexcept = default;
OnlineActor& OnlineActor::operator=(OnlineActor&&) noexcept = default;

VertexId OnlineActor::AddUnit(VertexType type, std::string name) {
  const VertexId id = static_cast<VertexId>(types_.size());
  types_.push_back(type);
  names_.push_back(std::move(name));
  const int owner = partitioner_.Assign(id, type);
  const int32_t local = map_.AddVertex(id, owner);
  ++owned_units_[static_cast<std::size_t>(owner)]
                [static_cast<std::size_t>(type)];
  // Row init consumes rng_ in global-id order regardless of owner, so the
  // initial vectors are identical across shard counts (the A/B anchor).
  center_.AppendRow(owner, &rng_);
  context_.AppendRow(owner, nullptr);
  // A new unit's row is dirty by definition: no previous snapshot chunk
  // can cover it. Resolve/AddUnit run on the ingest thread, outside any
  // shard epoch, so marking the owner's local set directly is safe.
  owned_dirty_[static_cast<std::size_t>(owner)].Resize(local + 1);
  owned_dirty_[static_cast<std::size_t>(owner)].Mark(local);
  return id;
}

VertexId OnlineActor::ResolveSpatial(const GeoPoint& location) {
  const NearestHit hit = resolver_.NearestSpatial(location);
  if (hit.index >= 0 && hit.distance <= options_.new_spatial_hotspot_km) {
    return resolver_.spatial_units[hit.index];
  }
  const VertexId unit = AddUnit(
      VertexType::kLocation,
      StrPrintf("L%zu(%.2f,%.2f)", resolver_.spatial_centers.size(),
                location.x, location.y));
  resolver_.spatial_centers.push_back(location);
  resolver_.spatial_units.push_back(unit);
  return unit;
}

VertexId OnlineActor::ResolveTemporal(double timestamp) {
  const double hour = HourOfDay(timestamp);
  const NearestHit hit = resolver_.NearestTemporal(hour);
  if (hit.index >= 0 && hit.distance <= options_.new_temporal_hotspot_hours) {
    return resolver_.temporal_units[hit.index];
  }
  const int hh = static_cast<int>(hour);
  const int mm = static_cast<int>((hour - hh) * 60.0);
  const VertexId unit = AddUnit(
      VertexType::kTime, StrPrintf("T%zu(%02d:%02d)",
                                   resolver_.temporal_hours.size(), hh, mm));
  resolver_.temporal_hours.push_back(hour);
  resolver_.temporal_units.push_back(unit);
  return unit;
}

VertexId OnlineActor::ResolveWord(int32_t word_id) {
  const VertexId known = resolver_.WordVertex(word_id);
  if (known != kInvalidVertex) return known;
  const VertexId unit =
      AddUnit(VertexType::kWord, StrPrintf("word%d", word_id));
  resolver_.word_units.emplace(word_id, unit);
  return unit;
}

VertexId OnlineActor::ResolveUser(int64_t user_id) {
  auto it = user_units_.find(user_id);
  if (it != user_units_.end()) return it->second;
  const VertexId unit = AddUnit(
      VertexType::kUser,
      StrPrintf("user%lld", static_cast<long long>(user_id)));
  user_units_.emplace(user_id, unit);
  return unit;
}

void OnlineActor::CollectEdge(EdgeType type, VertexId a, VertexId b) {
  // Local-write replication: the edge goes to every distinct owner's
  // list, so a cross-shard edge lands in both owners' replica stores.
  const std::size_t e = static_cast<std::size_t>(type);
  const int owner_a = map_.owner(a);
  const int owner_b = map_.owner(b);
  batch_edges_[static_cast<std::size_t>(owner_a)][e].push_back({a, b});
  if (owner_b != owner_a) {
    batch_edges_[static_cast<std::size_t>(owner_b)][e].push_back({a, b});
  }
}

std::size_t OnlineActor::num_live_edges() const {
  std::size_t total = 0;
  for (const auto& store : edges_) total += store.SizeUnique(map_);
  return total;
}

Status OnlineActor::Ingest(const std::vector<TokenizedRecord>& batch) {
  // The whole batch is checked before any state changes, so a rejected
  // batch leaves the model exactly as it was.
  ACTOR_RETURN_NOT_OK(ValidateBatch(batch));
  ResolveBatch(batch);
  ++batches_;
  // Recency decay happens before the new co-occurrences arrive, so the
  // newest batch always carries full weight. An empty batch is a valid
  // pure-decay tick (sparse-stream mode): a time slice passed with no
  // observations, so weights fade and training continues on the decayed
  // distribution. Because uniform decay never bumps an edge store's
  // version(), RefreshSamplers short-circuits and the tick skips every
  // alias-table rebuild.
  for (int s = 0; s < shards_; ++s) GrowShard(s);
  runner_.ParallelFor(static_cast<std::size_t>(shards_),
                      [this](std::size_t s) {
                        prepare_status_[s] = PrepareShard(static_cast<int>(s));
                      });
  for (const Status& status : prepare_status_) ACTOR_RETURN_NOT_OK(status);
  TrainShards();
  return Status::OK();
}

void OnlineActor::ResolveBatch(const std::vector<TokenizedRecord>& batch) {
  for (auto& lists : batch_edges_) {
    for (auto& edges : lists) edges.clear();
  }
  RecordUnits& units = record_units_;
  for (const TokenizedRecord& rec : batch) {
    // Resolution order fixes unit ids and row initialisation.
    units.time_unit = ResolveTemporal(rec.timestamp);
    units.location_unit = ResolveSpatial(rec.location);
    units.word_units.clear();
    for (int32_t w : rec.word_ids) units.word_units.push_back(ResolveWord(w));
    units.author = ResolveUser(rec.user_id);
    units.mentioned.clear();
    for (int64_t m : rec.mentioned_user_ids) {
      units.mentioned.push_back(ResolveUser(m));
    }
    ForEachRecordEdge(units, [this](EdgeType type, VertexId a, VertexId b) {
      CollectEdge(type, a, b);
    });
    // Unlike the offline user graph, the activity stores also train the
    // author-mention pairs (Def. 2) as their UU type.
    for (const VertexId m : units.mentioned) {
      if (m != units.author) CollectEdge(EdgeType::kUU, units.author, m);
    }
  }
}

void OnlineActor::GrowShard(int s) {
  const std::size_t shard = static_cast<std::size_t>(s);
  const auto& lists = batch_edges_[shard];
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    // Upper bounds: every batch edge may be new, and a noise table may
    // list every unit of its type the shard owns.
    OnlineEdgeStore& store = edges_[e].shard(s);
    store.Reserve(lists[static_cast<std::size_t>(e)].size(), num_units());
    SamplerCache& cache = samplers_[e][shard];
    cache.edge_table.Reserve(store.edge_capacity());
    for (int t = 0; t < kNumVertexTypes; ++t) {
      NoiseTable& noise = cache.noise[t];
      const std::size_t units =
          owned_units_[shard][static_cast<std::size_t>(t)];
      if (units <= noise.candidates.size()) continue;
      noise.candidates.resize(units);
      noise.weights.resize(units);
      noise.table.Reserve(units);
    }
  }
  if (shards_ > 1) tiles_[shard].AddSlots(s, lists, map_);
}

// Runs on the shard pool, concurrently with the other shards' prepare.
// Every write lands in shard-s-owned state (its replica stores, samplers,
// tile copies and epoch sizes) inside capacity GrowShard reserved; the
// reads of other shards' context rows see them as the last batch left
// them, since no epoch runs until the dispatch returns.
Status OnlineActor::PrepareShard(int s) {
  const std::size_t shard = static_cast<std::size_t>(s);
  std::array<int64_t, kNumEdgeTypes>& samples = epoch_samples_[shard];
  RemoteTileCache& tiles = tiles_[shard];
  if (shards_ > 1) tiles.BeginRefresh();
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    edges_[e].ApplyBatch(s, options_.decay_per_batch,
                         batch_edges_[shard][static_cast<std::size_t>(e)]);
    const OnlineEdgeStore& store = edges_[e].shard(s);
    samples[static_cast<std::size_t>(e)] = 0;
    if (store.empty()) continue;
    ACTOR_RETURN_NOT_OK(RefreshSamplers(e, s));
    // Both directions of every undirected edge carry the per-edge budget,
    // counted over each shard's own replica store, so a cross-shard edge —
    // present in both owners' stores but trained only in its
    // locally-centered orientation by each — receives the same 2x-per-edge
    // budget in total, split by ownership (docs/sharding.md).
    samples[static_cast<std::size_t>(e)] = static_cast<int64_t>(
        options_.samples_per_edge_per_batch * 2.0 *
        static_cast<double>(store.size()));
    // The tile exchange: a fresh read-snapshot of the context rows of the
    // remote vertices this store's edges touch. No epoch has run yet, so
    // every owner's rows are still those the last batch left.
    if (shards_ > 1) tiles.Refresh(s, store, map_, context_);
  }
  return Status::OK();
}

Status OnlineActor::RefreshSamplers(int e, int s) {
  const OnlineEdgeStore& store = edges_[e].shard(s);
  SamplerCache& cache = samplers_[e][static_cast<std::size_t>(s)];
  if (cache.built && cache.version == store.version()) {
    // Pure-decay batch for this type: uniform decay preserves the relative
    // distribution, so the cached tables are still exact.
    return Status::OK();
  }
  // The alias table over raw weights samples the *decayed* distribution
  // exactly (uniform scale cancels in the normalization).
  ACTOR_RETURN_NOT_OK(cache.edge_table.RebuildReserved(store.raw_weights()));
  for (auto& noise : cache.noise) {
    noise.size = 0;
    noise.valid = false;
  }
  // Negative draws must resolve to writable rows, so noise candidates are
  // restricted to shard-owned vertices (every vertex at one shard). They
  // are listed in ascending global id, so the table layout depends on the
  // store's contents alone, never on a container's iteration order.
  const std::span<const double> degrees = store.raw_degrees();
  for (const VertexId v : map_.globals(s)) {
    const double d = degrees[static_cast<std::size_t>(v)];
    if (!(d > 0.0)) continue;
    NoiseTable& noise = cache.noise[static_cast<int>(types_[v])];
    ACTOR_DCHECK(noise.size < noise.candidates.size())
        << "noise table of shard " << s << " past its reserve";
    noise.candidates[noise.size] = v;
    noise.weights[noise.size] = std::pow(d, 0.75);
    ++noise.size;
  }
  for (auto& noise : cache.noise) {
    if (noise.size == 0) continue;
    ACTOR_RETURN_NOT_OK(noise.table.RebuildReserved(
        std::span<const double>(noise.weights.data(), noise.size)));
    noise.valid = true;
  }
  cache.built = true;
  cache.version = store.version();
  return Status::OK();
}

void OnlineActor::TrainShards() {
  // Edge type e's epochs are seeded with the SGD steps scheduled before
  // it, over every shard and every earlier edge type of this batch.
  std::array<uint64_t, kNumEdgeTypes> steps{};
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    steps[static_cast<std::size_t>(e)] = train_steps_;
    for (const auto& samples : epoch_samples_) {
      train_steps_ +=
          static_cast<uint64_t>(samples[static_cast<std::size_t>(e)]);
    }
  }
  // One dispatch per batch; each shard runs its edge-type epochs back to
  // back. An epoch writes only shard-owned rows, its own tile copies and
  // its own dirty set, and reads only those plus state frozen at prepare,
  // so the result is bit-identical however the shards are scheduled —
  // training is deterministic at ANY thread count.
  runner_.ParallelFor(
      static_cast<std::size_t>(shards_), [this, &steps](std::size_t s) {
        for (int e = 0; e < kNumEdgeTypes; ++e) {
          const int64_t n = epoch_samples_[s][static_cast<std::size_t>(e)];
          if (n <= 0) continue;
          TrainShardEpoch(
              e, static_cast<int>(s), n,
              ShardSeed(options_.seed, steps[static_cast<std::size_t>(e)], s),
              &owned_dirty_[s], epoch_grad_.slot(s));
        }
      });
  // Sweep both matrices for NaN/inf after every batch in debug builds
  // (same policy as EdgeSamplingTrainer).
  ACTOR_DCHECK(center_.DebugValidate());
  ACTOR_DCHECK(context_.DebugValidate());
}

// May run concurrently with the other shards' epochs (ParallelFor
// dispatch), but every write lands in shard-s-owned state: center/context
// rows of owned vertices, the private remote-tile copies, and this shard's
// own dirty set. Allocation-free: `grad` scratch is owned by the dispatch
// site.
void OnlineActor::TrainShardEpoch(int e, int s, int64_t num_samples,
                                  uint64_t seed, DirtyRowSet* dirty,
                                  float* grad) {
  Rng rng(seed);
  const OnlineEdgeStore& store = edges_[e].shard(s);
  const SamplerCache& cache = samplers_[e][static_cast<std::size_t>(s)];
  EmbeddingMatrix& center = center_.shard(s);
  EmbeddingMatrix& context = context_.shard(s);
  RemoteTileCache& tiles = tiles_[static_cast<std::size_t>(s)];
  ACTOR_DCHECK(cache.built && cache.edge_table.size() == store.size())
      << "sampler for edge type " << e << " shard " << s << " covers "
      << cache.edge_table.size() << " edges, store holds " << store.size();
  const std::span<const VertexId> src = store.src();
  const std::span<const VertexId> dst = store.dst();
  const std::size_t dim = static_cast<std::size_t>(options_.dim);
  const float lr = options_.learning_rate;

  // Block-wise sampling with software prefetch, as in
  // EdgeSamplingTrainer::TrainShard: the random center/context row
  // accesses of block i overlap the alias draws of block i+1. The low bit
  // of each buffered entry is the edge orientation (undirected edges are
  // stored once; each draw picks a direction uniformly).
  constexpr int64_t kBlock = 64;
  std::array<std::size_t, kBlock> idx_buf;
  for (int64_t base = 0; base < num_samples; base += kBlock) {
    const int64_t block = std::min<int64_t>(kBlock, num_samples - base);
    for (int64_t i = 0; i < block; ++i) {
      const std::size_t idx = cache.edge_table.Sample(rng);
      const std::size_t flip = rng.Next() & 1;
      idx_buf[static_cast<std::size_t>(i)] = (idx << 1) | flip;
      const VertexId u = flip ? dst[idx] : src[idx];
      // Prefetch only steps that will actually train (center owned here);
      // prefetching consumes no RNG, so skipping is identity-neutral.
      if (map_.owner(u) == s) {
        const VertexId v = flip ? src[idx] : dst[idx];
        PrefetchRow(center.row(map_.local_row(u)), dim);
        PrefetchRow(map_.owner(v) == s ? context.row(map_.local_row(v))
                                       : tiles.row(v),
                    dim);
      }
    }
    for (int64_t i = 0; i < block; ++i) {
      const std::size_t packed = idx_buf[static_cast<std::size_t>(i)];
      const std::size_t idx = packed >> 1;
      const bool flip = (packed & 1) != 0;
      const VertexId u = flip ? dst[idx] : src[idx];
      const VertexId v = flip ? src[idx] : dst[idx];
      // Ownership gate: this shard trains only orientations whose center
      // endpoint it owns; the co-owner trains the other orientation from
      // its replica. Consumes no RNG, so shards stay stream-aligned.
      if (map_.owner(u) != s) continue;
      const NoiseTable& noise = cache.noise[static_cast<int>(types_[v])];
      if (!noise.valid) continue;
      Zero(grad, dim);
      const int32_t lu = map_.local_row(u);
      // The positive context row: owned rows update in place; a remote
      // vertex's row is the private tile copy, whose delta is discarded at
      // the next barrier (freshness contract in docs/sharding.md).
      float* const pos_ctx = map_.owner(v) == s
                                 ? context.row(map_.local_row(v))
                                 : tiles.row(v);
      // Negatives come from this shard's noise table, which holds owned
      // vertices only — every negative context row is writable locally.
      NegativeSamplingUpdateRows(
          center.row(lu), v, pos_ctx, dim, options_.negatives, lr, sigmoid_,
          rng,
          [&noise, dirty, this](Rng& r) {
            const VertexId n = noise.candidates[noise.table.Sample(r)];
            dirty->Mark(map_.local_row(n));
            return n;
          },
          [&context, this](VertexId x) {
            return context.row(map_.local_row(x));
          },
          grad);
      Add(grad, center.row(lu), dim);
      dirty->Mark(lu);
      if (map_.owner(v) == s) dirty->Mark(map_.local_row(v));
    }
  }
}

ModelSnapshot::OnlineCatalog OnlineActor::BuildCatalog() const {
  ModelSnapshot::OnlineCatalog catalog;
  catalog.types = types_;
  catalog.names = names_;
  catalog.resolver = resolver_;
  return catalog;
}

ModelSnapshot::OnlineCatalog OnlineActor::BuildShardCatalog(int s) const {
  ModelSnapshot::OnlineCatalog catalog;
  const std::vector<VertexId>& globals = map_.globals(s);
  catalog.types.reserve(globals.size());
  catalog.names.reserve(globals.size());
  for (const VertexId g : globals) {
    catalog.types.push_back(types_[static_cast<std::size_t>(g)]);
    catalog.names.push_back(names_[static_cast<std::size_t>(g)]);
  }
  return catalog;
}

std::shared_ptr<const ShardMapSnapshot> OnlineActor::BuildMapSnapshot()
    const {
  auto snap = std::make_shared<ShardMapSnapshot>();
  static_cast<UnitResolver&>(*snap) = resolver_;
  snap->num_shards = shards_;
  snap->owner = map_.owners();
  snap->local = map_.locals();
  snap->globals = map_.all_globals();
  return snap;
}

uint64_t OnlineActor::ModelVersion() const {
  // Version stamping follows the OnlineEdgeStore scheme: each store's
  // version() bumps on every accumulate/drop, and the batch count covers
  // pure-decay ticks (which by design do not bump store versions). The sum
  // is monotone across Ingest() calls, so snapshot versions totally order
  // the published model states. (ShardedEdgeStore::version() sums its
  // replicas.)
  uint64_t version = static_cast<uint64_t>(batches_);
  for (const auto& store : edges_) version += store.version();
  return version;
}

std::shared_ptr<const ModelSnapshot> OnlineActor::PublishSnapshot() {
  const uint64_t version = ModelVersion();

  auto prev = snapshots_->Acquire();
  if (prev != nullptr && prev->version() == version) {
    // No Ingest() since the last publish — the model is unchanged, so the
    // published snapshot is still exact. Copying nothing makes publish a
    // cheap no-op at any cadence.
    return prev;
  }
  // The flat bridge is always a full gather + copy and deliberately
  // leaves every dirty set untouched: per-shard delta bookkeeping belongs
  // to PublishShardedSnapshot alone, so the two may be mixed freely.
  auto snap =
      ModelSnapshot::FromOnline(center_.Gather(map_), BuildCatalog(), version);
  snapshots_->Publish(snap);
  return snap;
}

std::shared_ptr<const ModelSnapshot> OnlineActor::CurrentSnapshot() const {
  return snapshots_->Acquire();
}

std::shared_ptr<const ShardedModelSnapshot>
OnlineActor::PublishShardedSnapshot() {
  const uint64_t version = ModelVersion();

  auto prev = sharded_snapshots_->Acquire();
  if (prev != nullptr && prev->version() == version) {
    return prev;
  }
  // The ownership map only grows through AddUnit, so an unchanged vertex
  // count means the frozen map (and its resolvers) is still exact — share
  // it across publishes, as a shard delta shares an unchanged catalogue.
  std::shared_ptr<const ShardMapSnapshot> map_snap =
      (prev != nullptr && prev->map().num_vertices() == num_units())
          ? prev->map_ptr()
          : BuildMapSnapshot();

  std::vector<std::shared_ptr<const ModelSnapshot>> shards;
  shards.reserve(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s) {
    const EmbeddingMatrix& center = center_.shard(s);
    DirtyRowSet& dirty = owned_dirty_[static_cast<std::size_t>(s)];
    const std::shared_ptr<const ModelSnapshot> prev_s =
        prev != nullptr ? prev->shard(s) : nullptr;
    std::shared_ptr<const ModelSnapshot> snap_s;
    // Per-shard delta against the shard's own previous snapshot, driven by
    // its persistent LOCAL-row dirty set; a shard's first publish is a
    // full copy.
    if (prev_s != nullptr) {
      snap_s = prev_s->num_units() == center.rows()
                   ? ModelSnapshot::FromOnlineDelta(center, version, prev_s,
                                                    dirty)
                   : ModelSnapshot::FromOnlineDelta(center, version, prev_s,
                                                    dirty,
                                                    BuildShardCatalog(s));
    } else {
      snap_s = ModelSnapshot::FromOnline(center, BuildShardCatalog(s),
                                         version);
    }
    // Either way shard s's new snapshot is exact, so its dirty set resets.
    dirty.Clear();
    shards.push_back(std::move(snap_s));
  }
  auto snap = ShardedModelSnapshot::Make(std::move(shards),
                                         std::move(map_snap), version);
  sharded_snapshots_->Publish(snap);
  return snap;
}

std::shared_ptr<const ShardedModelSnapshot> OnlineActor::CurrentShardedSnapshot()
    const {
  return sharded_snapshots_->Acquire();
}

double OnlineActor::ScoreRecordAgainstUnit(const TokenizedRecord& record,
                                           VertexId candidate) const {
  if (candidate == kInvalidVertex) return -1e9;
  const std::size_t dim = static_cast<std::size_t>(options_.dim);
  std::vector<float> query(dim, 0.0f);
  int parts = 0;
  const VertexId t = TemporalUnit(record.timestamp);
  if (t != kInvalidVertex && t != candidate) {
    Add(CenterRow(t), query.data(), dim);
    ++parts;
  }
  const VertexId l = SpatialUnit(record.location);
  if (l != kInvalidVertex && l != candidate) {
    Add(CenterRow(l), query.data(), dim);
    ++parts;
  }
  std::vector<float> text(dim, 0.0f);
  int known = 0;
  for (int32_t w : record.word_ids) {
    const VertexId v = WordUnit(w);
    if (v == kInvalidVertex || v == candidate) continue;
    Add(CenterRow(v), text.data(), dim);
    ++known;
  }
  if (known > 0) {
    Scale(1.0f / static_cast<float>(known), text.data(), dim);
    Add(text.data(), query.data(), dim);
    ++parts;
  }
  if (parts == 0) return -1e9;
  return Cosine(query.data(), CenterRow(candidate), dim);
}

}  // namespace actor
