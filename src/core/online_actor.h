#ifndef ACTOR_CORE_ONLINE_ACTOR_H_
#define ACTOR_CORE_ONLINE_ACTOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/online_edge_store.h"
#include "data/record.h"
#include "data/vocabulary.h"
#include "embedding/dirty_rows.h"
#include "embedding/embedding_matrix.h"
#include "graph/alias_table.h"
#include "graph/graph_builder.h"
#include "graph/types.h"
#include "serve/model_snapshot.h"
#include "shard/remote_tile_cache.h"
#include "shard/sharded_edge_store.h"
#include "shard/sharded_matrix.h"
#include "shard/sharded_snapshot.h"
#include "shard/vertex_partitioner.h"
#include "util/cache_line.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/vec_math.h"

namespace actor {

/// Options for the streaming extension (docs/streaming.md; modeled on the
/// recency-aware direction of the authors' ReAct [8], which the paper
/// lists as the online successor of CrossMap).
struct OnlineActorOptions {
  int32_t dim = 32;
  int negatives = 5;
  float learning_rate = 0.02f;
  uint64_t seed = 71;

  /// Per ingested batch, every live edge is sampled this many times in
  /// expectation. The main throughput/quality dial of the streaming path —
  /// see the tuning table in docs/streaming.md.
  double samples_per_edge_per_batch = 3.0;

  /// Recency: every edge weight is multiplied by this factor at each
  /// Ingest() call, so stale co-occurrences fade ("recency-aware"). 1.0
  /// disables forgetting.
  double decay_per_batch = 0.7;
  /// Edges whose decayed weight drops below this are dropped. Must be > 0
  /// when decay_per_batch < 1 (otherwise edges would decay forever without
  /// ever being reclaimed).
  double min_edge_weight = 0.05;

  /// A record farther than this from every spatial hotspot spawns a new
  /// hotspot at its location (km).
  double new_spatial_hotspot_km = 2.0;
  /// A record farther than this (circular hours) from every temporal
  /// hotspot spawns a new one.
  double new_temporal_hotspot_hours = 1.5;

  /// Worker threads for the per-batch prepare and re-embed dispatches.
  /// With num_threads <= 1 the shards prepare, then train, one after
  /// another on the ingest thread. With a pool of P workers the shards are
  /// split into min(num_shards, P + 1) contiguous groups: the ingest thread
  /// runs one group and the workers the others, so up to P + 1 shards run
  /// at once (4 shards on a 3-worker pool all run together). Every shard
  /// writes only shard-owned state and neither dispatch allocates, so the
  /// result is bit-identical either way — parallelism comes from
  /// num_shards, not from splitting a shard's sample budget.
  int num_threads = 1;
  /// Externally-owned persistent worker pool (ShardRunner policy,
  /// util/thread_pool.h). When null and num_threads > 1 the actor creates
  /// its own pool, kept for the actor's lifetime. The pool must outlive
  /// the actor; num_threads <= 1 ignores the pool entirely.
  ThreadPool* pool = nullptr;

  /// Ownership partitioning (docs/sharding.md): a VertexPartitioner
  /// assigns every unit to one of `num_shards` shards, each shard trains
  /// its own rows in an independent epoch (cross-shard context rows
  /// resolved through a per-shard remote-tile cache refreshed at batch
  /// barriers), and PublishShardedSnapshot() emits per-shard chunk-COW
  /// snapshots behind one composite store. Training writes only
  /// shard-owned state, so it is bit-deterministic at ANY num_threads.
  /// Must be >= 1; the default single shard holds the whole model in one
  /// flat allocation per matrix (local ids == global ids).
  int num_shards = 1;
  /// How vertex ids map to shards (hash by default).
  ShardStrategy shard_strategy = ShardStrategy::kHash;
};

/// Streaming hierarchical cross-modal embedding: ingests record batches,
/// maintains a decaying co-occurrence graph with a growing unit set
/// (hotspots, words, users), and refreshes the shared embedding space
/// after every batch. Units never seen again fade from the sampling
/// distribution but keep their vectors.
///
/// Each Ingest() runs the three-step cycle described in docs/streaming.md:
///   1. resolve, on the ingest thread: validate the batch, resolve its
///      units and append each co-occurrence to the per-edge-type batch
///      list of each of its one or two owner shards; then grow every
///      shard's stores, samplers and tile slots for those lists;
///   2. prepare: one ShardRunner::ParallelFor dispatch in which every
///      shard decays its replica stores and accumulates its batch edges,
///      rebuilds its changed samplers and refreshes its remote tiles, all
///      in the capacity step 1 grew (nothing under the dispatch allocates);
///   3. train: one ShardRunner::ParallelFor dispatch in which every shard
///      runs its edge-type epochs back to back.
/// Per-shard RNG streams derive from ShardSeed, and all row arithmetic
/// goes through the runtime-dispatched kernels in util/vec_math.h (so the
/// TSan `relaxed` backend covers the streaming path too).
class OnlineActor {
 public:
  /// Creates an empty model; the first Ingest() bootstraps everything.
  static Result<OnlineActor> Create(OnlineActorOptions options);

  ~OnlineActor();
  OnlineActor(OnlineActor&&) noexcept;
  OnlineActor& operator=(OnlineActor&&) noexcept;

  /// Ingests one batch of tokenized records (ids from a caller-owned,
  /// append-only vocabulary), updates the unit graph, and trains. An empty
  /// batch is a pure-decay tick (a time slice with no observations):
  /// existing edge weights decay, no accumulation happens, and training
  /// runs on the cached samplers — uniform decay preserves the sampling
  /// distribution, so no alias table is rebuilt. A batch holding a record
  /// with a non-finite location or timestamp is rejected whole with
  /// InvalidArgument before any state changes.
  Status Ingest(const std::vector<TokenizedRecord>& batch);

  /// Number of Ingest() calls so far.
  int64_t batches_ingested() const { return batches_; }

  int32_t num_units() const { return static_cast<int32_t>(types_.size()); }
  std::size_t num_live_edges() const;
  /// The per-shard replica stores of one edge type (test/introspection).
  const ShardedEdgeStore& edge_store(EdgeType type) const {
    return edges_[static_cast<int>(type)];
  }
  std::size_t num_spatial_hotspots() const {
    return resolver_.spatial_centers.size();
  }
  std::size_t num_temporal_hotspots() const {
    return resolver_.temporal_hours.size();
  }

  /// Shard count (options.num_shards).
  int num_shards() const { return shards_; }
  /// The live tile-ownership map (global id -> owner shard, local row).
  const ShardMap& shard_map() const { return map_; }

  /// The flat center matrix. Only meaningful with a single shard, where
  /// local ids equal global ids; multi-shard consumers use center_shard() /
  /// GatherCenter().
  const EmbeddingMatrix& center() const {
    ACTOR_DCHECK(shards_ == 1) << "center() needs a single shard; use "
                                  "center_shard()/GatherCenter()";
    return center_.shard(0);
  }
  /// Shard `s`'s center rows, indexed by shard-local row id.
  const EmbeddingMatrix& center_shard(int s) const {
    return center_.shard(s);
  }
  /// Flat copy of the center matrix in global-id order (O(units x dim)).
  EmbeddingMatrix GatherCenter() const { return center_.Gather(map_); }
  /// Distinct remote vertices shard `s`'s tile cache has held (0 until a
  /// cross-shard edge appeared). Test/introspection only.
  std::size_t remote_tile_rows(int s) const { return tiles_[s].size(); }

  VertexType unit_type(VertexId v) const { return types_[v]; }
  const std::string& unit_name(VertexId v) const { return names_[v]; }

  /// Unit ids for modality values (kInvalidVertex when unseen), through
  /// the same UnitResolver every snapshot of this actor copies.
  VertexId SpatialUnit(const GeoPoint& location) const {
    return resolver_.SpatialVertex(location);
  }
  VertexId TemporalUnit(double timestamp) const {
    return resolver_.TemporalVertexAt(timestamp);
  }
  VertexId WordUnit(int32_t word_id) const {
    return resolver_.WordVertex(word_id);
  }

  /// Cosine score of a record against the current space: mean of its
  /// resolvable unit vectors vs the candidate unit. Used by the
  /// prequential evaluation in bench/streaming_activity.
  double ScoreRecordAgainstUnit(const TokenizedRecord& record,
                                VertexId candidate) const;

  /// Publishes the current model as one flat, immutable ModelSnapshot and
  /// installs it as the actor's current snapshot — the bridge for
  /// consumers of the flat QueryEngine (offline evaluation, benchmarks).
  /// Always a full copy: the center matrix is gathered into global-id
  /// order and deep-copied, O(units x dim), and no dirty-row set is read
  /// or cleared, so it may be mixed freely with PublishShardedSnapshot().
  /// When the model version is unchanged since the last flat publish (no
  /// Ingest() in between) the already-published snapshot is returned
  /// as-is. Call from the ingest thread only (the same thread that calls
  /// Ingest()); never concurrently with it.
  /// The snapshot version follows the OnlineEdgeStore::version() scheme:
  /// batches_ingested() plus the sum of the per-edge-type store versions,
  /// so any batch that changed the sampled distribution (and any batch at
  /// all, via the batch count) bumps it monotonically.
  std::shared_ptr<const ModelSnapshot> PublishSnapshot();

  /// Latest published snapshot (null before the first PublishSnapshot()).
  /// Safe from any thread, concurrently with Ingest()/PublishSnapshot():
  /// the slot swap is an atomic shared_ptr operation, and the snapshot
  /// itself is immutable — this is the race-free read path for serving
  /// queries against a live actor (see the tsan-labeled
  /// QueryDuringIngest smoke test).
  std::shared_ptr<const ModelSnapshot> CurrentSnapshot() const;

  /// Publishes the current model as a composite of per-shard chunk-COW
  /// ModelSnapshots plus a frozen ShardMapSnapshot, installed atomically
  /// as ONE pointer swap — readers never see shards at mixed versions.
  /// Each shard deltas against its own previous snapshot using its
  /// per-shard dirty set (only chunks holding a dirty row are copied; the
  /// catalogue is shared when the shard gained no unit); a shard's first
  /// publish is a full copy. Same no-op-at-unchanged-version and
  /// ingest-thread-only contract as PublishSnapshot().
  std::shared_ptr<const ShardedModelSnapshot> PublishShardedSnapshot();

  /// Latest composite snapshot (null before the first
  /// PublishShardedSnapshot()). Safe from any thread, like
  /// CurrentSnapshot() — the read side of ShardedQueryDuringIngest.
  std::shared_ptr<const ShardedModelSnapshot> CurrentShardedSnapshot() const;

 private:
  /// Cached per-edge-type samplers, stamped with the store version they
  /// were built at. Rebuilt in place (allocation-free at steady state, and
  /// drawing exactly what a fresh table would) only when the store's
  /// relative distribution changed.
  struct NoiseTable {
    // The first `size` entries are live; the vectors' length is the
    // capacity GrowShard reserved (the shard's units of this type).
    std::vector<VertexId> candidates;
    std::vector<double> weights;  // degree^(3/4) scratch for rebuilds
    std::size_t size = 0;
    AliasTable table;
    bool valid = false;
  };
  struct SamplerCache {
    bool built = false;
    uint64_t version = 0;
    AliasTable edge_table;
    NoiseTable noise[kNumVertexTypes];
  };

  explicit OnlineActor(OnlineActorOptions options);

  VertexId AddUnit(VertexType type, std::string name);
  /// Assign-or-spawn for the two hotspot families: the resolver's nearest
  /// hotspot when it lies within options_.new_*_hotspot_*, else a new one.
  VertexId ResolveSpatial(const GeoPoint& location);
  VertexId ResolveTemporal(double timestamp);
  VertexId ResolveWord(int32_t word_id);
  VertexId ResolveUser(int64_t user_id);

  /// Ingest step 1: resolves every record's units (spawning new ones) and
  /// fills batch_edges_ with the batch's co-occurrences in record order:
  /// each record's Def. 1 edges (ForEachRecordEdge), then its author-mention
  /// UU pairs.
  void ResolveBatch(const std::vector<TokenizedRecord>& batch);
  /// Appends {a, b} to the `type` batch list of each distinct owner shard.
  void CollectEdge(EdgeType type, VertexId a, VertexId b);
  /// End of ingest step 1 for shard `s` (ingest thread, the only step that
  /// allocates): reserves its replica stores, edge and noise samplers for
  /// its batch lists and the unit count, and gives tile slots to the
  /// remote endpoints those lists bring.
  void GrowShard(int s);
  /// Ingest step 2 for shard `s`, on the shard pool: decays its replica
  /// stores and accumulates its batch edges, refreshes its samplers, sizes
  /// its epochs (epoch_samples_[s]) and refreshes its remote tiles.
  /// Allocation-free: it writes only into what GrowShard reserved, and
  /// only shard-s-owned state.
  Status PrepareShard(int s);
  /// Ingest step 3: one dispatch in which every shard runs its edge-type
  /// epochs back to back. Epoch (e, s) is seeded with ShardSeed(seed,
  /// steps, s), where steps counts every SGD step scheduled before edge
  /// type e — all shards of earlier types and earlier batches.
  void TrainShards();
  /// Brings samplers_[e][s] up to date with edges_[e].shard(s) (no-op when
  /// the store version matches — e.g. after pure-decay batches), in the
  /// storage GrowShard reserved. Noise candidates are the shard-owned
  /// vertices with a live degree in ascending global id, so negative draws
  /// always resolve to writable local rows (every vertex at one shard).
  Status RefreshSamplers(int e, int s);
  /// Shard `s`'s trainer epoch for edge type e: draws from the shard's own
  /// replica store, trains only orientations whose center endpoint it
  /// owns, resolves remote positive-context rows through tiles_[s], and
  /// marks `dirty` (= owned_dirty_[s], exclusively this shard's) with
  /// LOCAL row ids. Runs inside TrainShards' dispatch; the body is
  /// allocation-free — `grad` is the shard's epoch_grad_ slot of length
  /// options_.dim.
  void TrainShardEpoch(int e, int s, int64_t num_samples, uint64_t seed,
                       DirtyRowSet* dirty, float* grad);
  /// batches_ingested() plus the per-edge-type store versions: the
  /// monotone version both publish paths stamp.
  uint64_t ModelVersion() const;
  /// The copied resolver state the flat PublishSnapshot() adopts.
  ModelSnapshot::OnlineCatalog BuildCatalog() const;
  /// Shard `s`'s local catalogue: types/names of its units in local-row
  /// order. Its resolver stays empty — global resolution lives in the
  /// ShardMapSnapshot.
  ModelSnapshot::OnlineCatalog BuildShardCatalog(int s) const;
  /// The frozen ownership map + global resolvers for a composite publish.
  std::shared_ptr<const ShardMapSnapshot> BuildMapSnapshot() const;
  /// Center row of a global unit id, whichever shard owns it.
  const float* CenterRow(VertexId v) const {
    return center_.shard(map_.owner(v)).row(map_.local_row(v));
  }

  OnlineActorOptions options_;
  Rng rng_;
  int64_t batches_ = 0;
  /// Total re-embed SGD steps scheduled so far; the per-(batch, edge type)
  /// component of ShardSeed.
  uint64_t train_steps_ = 0;

  /// Shard count (options.num_shards, >= 1).
  int shards_ = 1;
  VertexPartitioner partitioner_;
  ShardMap map_;

  // Unit catalogue (grows, never shrinks).
  std::vector<VertexType> types_;
  std::vector<std::string> names_;
  ShardedEmbeddingMatrix center_;
  ShardedEmbeddingMatrix context_;

  // Hotspot centers/hours and word units, index-aligned with their unit
  // ids; snapshots copy it as one value.
  UnitResolver resolver_;
  std::unordered_map<int64_t, VertexId> user_units_;

  // Decaying undirected edge weights per edge type, in per-shard replica
  // stores with incremental sampler maintenance (docs/streaming.md,
  // docs/sharding.md). samplers_[e] holds one cache per shard, each stamped
  // against its own replica store.
  ShardedEdgeStore edges_[kNumEdgeTypes];
  std::vector<SamplerCache> samplers_[kNumEdgeTypes];
  /// Per shard, the current batch's co-occurrences with an endpoint it
  /// owns, per edge type, in record order (ResolveBatch fills them;
  /// capacity is kept across batches).
  std::vector<std::array<std::vector<BatchEdge>, kNumEdgeTypes>>
      batch_edges_;
  /// ResolveBatch's units of the current record (capacity kept across
  /// records).
  RecordUnits record_units_;
  /// Per shard, its units of each vertex type — the noise tables' bound.
  std::vector<std::array<std::size_t, kNumVertexTypes>> owned_units_;
  /// Per shard, PrepareShard's result, joined after the prepare dispatch.
  std::vector<Status> prepare_status_;
  /// Per shard, the SGD samples of each edge type's epoch this batch
  /// (PrepareShard sizes them; 0 = no epoch).
  std::vector<std::array<int64_t, kNumEdgeTypes>> epoch_samples_;
  /// Per-shard gradient scratch for the epochs; no two shards' slots
  /// share or neighbour a cache line (util/cache_line.h).
  ShardScratch epoch_grad_;

  /// Per-shard persistent dirty sets over LOCAL row ids, marked by AddUnit
  /// and by each shard's single-writer epoch (no merge needed), and
  /// cleared by PublishShardedSnapshot's per-shard deltas.
  std::vector<DirtyRowSet> owned_dirty_;
  /// Per-shard caches of remote vertices' context rows: slots added by
  /// GrowShard, refreshed by PrepareShard.
  std::vector<RemoteTileCache> tiles_;

  /// Dispatches the per-shard prepare and epochs (inline at
  /// num_threads <= 1).
  ShardRunner runner_;

  /// Atomic slot for the latest flat snapshot. unique_ptr because the
  /// store holds a std::atomic (non-movable) and OnlineActor is movable.
  std::unique_ptr<SnapshotStore> snapshots_;
  /// Atomic slot for the latest composite (per-shard) snapshot.
  std::unique_ptr<ShardedSnapshotStore> sharded_snapshots_;

  SigmoidTable sigmoid_;
};

}  // namespace actor

#endif  // ACTOR_CORE_ONLINE_ACTOR_H_
