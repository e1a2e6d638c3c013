// Delta publish (per-shard dirty-row tracking + chunk-COW snapshots,
// through OnlineActor::PublishShardedSnapshot): every delta composite must
// hold exactly what a full copy would, in snapshot contents AND query
// results; clean chunks must actually be shared; versions stay monotone,
// also under interleaved publishes from both trainers; and a snapshot
// handle stays frozen while later deltas land.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/actor.h"
#include "core/online_actor.h"
#include "data/synthetic.h"
#include "embedding/dirty_rows.h"
#include "embedding/embedding_matrix.h"
#include "eval/pipeline.h"
#include "serve/chunked_matrix.h"
#include "serve/model_snapshot.h"
#include "serve/query_engine.h"
#include "shard/sharded_query_engine.h"

namespace actor {
namespace {

std::vector<std::vector<TokenizedRecord>> MakeBatches(int records,
                                                      int batches,
                                                      uint64_t seed = 5) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_records = records;
  config.num_users = 60;
  config.num_communities = 4;
  config.num_topics = 6;
  config.num_venues = 12;
  config.keywords_per_topic = 15;
  config.background_vocab = 30;
  auto ds = GenerateSynthetic(config);
  EXPECT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  EXPECT_TRUE(corpus.ok());
  std::vector<std::vector<TokenizedRecord>> out(batches);
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    out[i * batches / corpus->size()].push_back(corpus->record(i));
  }
  return out;
}

OnlineActorOptions FastOnlineOptions() {
  OnlineActorOptions o;
  o.dim = 16;
  o.samples_per_edge_per_batch = 2.0;
  return o;
}

bool SameMatrix(const ChunkedMatrix& a, const ChunkedMatrix& b) {
  if (a.rows() != b.rows() || a.dim() != b.dim()) return false;
  for (int32_t r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.row(r), b.row(r),
                    sizeof(float) * static_cast<std::size_t>(a.dim())) != 0) {
      return false;
    }
  }
  return true;
}

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertex != b[i].vertex || a[i].name != b[i].name ||
        a[i].similarity != b[i].similarity) {
      return false;
    }
  }
  return true;
}

/// A just-published composite holds what a full copy of `model` would:
/// every shard's rows equal the live shard matrix, and every unit resolves
/// through the frozen map to the flat full-copy snapshot's name and row.
void ExpectCompositeMatchesLive(const ShardedModelSnapshot& composite,
                                const OnlineActor& model,
                                const ModelSnapshot& flat) {
  ASSERT_EQ(composite.num_shards(), model.num_shards());
  for (int s = 0; s < composite.num_shards(); ++s) {
    const ChunkedMatrix& published = composite.shard(s)->center();
    const EmbeddingMatrix& live = model.center_shard(s);
    ASSERT_EQ(published.rows(), live.rows()) << "shard " << s;
    for (int32_t r = 0; r < live.rows(); ++r) {
      ASSERT_EQ(std::memcmp(published.row(r), live.row(r),
                            sizeof(float) *
                                static_cast<std::size_t>(live.dim())),
                0)
          << "shard " << s << " row " << r;
    }
  }
  const ShardMapSnapshot& map = composite.map();
  ASSERT_EQ(map.num_vertices(), flat.num_units());
  for (VertexId v = 0; v < map.num_vertices(); ++v) {
    const ModelSnapshot& shard =
        *composite.shard(map.owner[static_cast<std::size_t>(v)]);
    const VertexId local = map.local[static_cast<std::size_t>(v)];
    EXPECT_EQ(shard.vertex_type(local), flat.vertex_type(v));
    EXPECT_EQ(shard.vertex_name(local), flat.vertex_name(v));
    ASSERT_EQ(std::memcmp(shard.center().row(local), flat.center().row(v),
                          sizeof(float) *
                              static_cast<std::size_t>(flat.dim())),
              0)
        << "vertex " << v;
  }
}

// --- Delta publishes are bit-identical to full copies ----------------------

TEST(DeltaPublishABTest, OnlineDeltaMatchesFullCopyBitIdentical) {
  // Every composite is checked right after its publish against the live
  // shard matrices and against the flat PublishSnapshot() bridge, which is
  // always a full copy: same version, same rows and catalogue, same query
  // results. Covered at the default single shard and at two shards.
  const auto batches = MakeBatches(900, 4);
  const GeoPoint probe = batches[0].front().location;
  for (int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    OnlineActorOptions opts = FastOnlineOptions();
    opts.num_shards = shards;
    auto model = OnlineActor::Create(opts);
    ASSERT_TRUE(model.ok());

    for (const auto& batch : batches) {
      ASSERT_TRUE(model->Ingest(batch).ok());
      auto ds = model->PublishShardedSnapshot();
      auto flat = model->PublishSnapshot();
      ASSERT_NE(ds, nullptr);
      ASSERT_NE(flat, nullptr);
      EXPECT_EQ(ds->version(), flat->version());
      EXPECT_EQ(ds->num_units(), flat->num_units());
      ExpectCompositeMatchesLive(*ds, *model, *flat);

      ShardedQueryEngine dq(ds);
      QueryEngine fq(flat);
      auto dw = dq.QueryByLocation(probe, VertexType::kWord, 8);
      auto fw = fq.QueryByLocation(probe, VertexType::kWord, 8);
      ASSERT_TRUE(dw.ok());
      ASSERT_TRUE(fw.ok());
      EXPECT_TRUE(SameNeighbors(*dw, *fw));
      auto dh = dq.QueryByHour(13.0, VertexType::kLocation, 5);
      auto fh = fq.QueryByHour(13.0, VertexType::kLocation, 5);
      ASSERT_TRUE(dh.ok());
      ASSERT_TRUE(fh.ok());
      EXPECT_TRUE(SameNeighbors(*dh, *fh));
    }
  }
}

// --- Chunk sharing and the no-op publish ------------------------------------

TEST(DeltaPublishTest, CleanChunksAreSharedWithPreviousSnapshot) {
  const auto batches = MakeBatches(900, 2);
  auto model = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  auto base_composite = model->PublishShardedSnapshot();
  ASSERT_NE(base_composite, nullptr);
  const std::shared_ptr<const ModelSnapshot> base = base_composite->shard(0);
  const int32_t n = model->center().rows();
  ASSERT_GT(n, 2 * ChunkedMatrix::kChunkRows);  // several chunks to share

  // Delta with a few dirty rows in the FIRST chunk only: every other
  // chunk must be shared by pointer, and the contents must still equal
  // the source matrix exactly.
  DirtyRowSet dirty;
  dirty.Resize(n);
  dirty.Mark(0);
  dirty.Mark(ChunkedMatrix::kChunkRows - 1);
  auto delta = ModelSnapshot::FromOnlineDelta(model->center(),
                                              base->version() + 1, base,
                                              dirty);
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->center().num_chunks(), base->center().num_chunks());
  EXPECT_EQ(delta->center().SharedChunksWith(base->center()),
            base->center().num_chunks() - 1);
  EXPECT_TRUE(SameMatrix(delta->center(), base->center()));

  // A fully-dirty delta shares nothing but still matches.
  DirtyRowSet all;
  all.Resize(n);
  all.MarkAll();
  auto fresh = ModelSnapshot::FromOnlineDelta(model->center(),
                                              base->version() + 2, base, all);
  EXPECT_EQ(fresh->center().SharedChunksWith(base->center()), 0);
  EXPECT_TRUE(SameMatrix(fresh->center(), base->center()));
}

TEST(DeltaPublishTest, ShardedPublishSharesChunksTheBatchDidNotTouch) {
  // End to end through PublishShardedSnapshot: decay every edge of the
  // first batch away (no live edge => no training => no dirty row), then
  // ingest one record made only of new units. The next publish may copy
  // only the chunks those units landed in (plus the chunk of the temporal
  // hotspot the record snaps to); every other chunk is shared.
  const auto batches = MakeBatches(900, 1);
  auto model = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  for (int i = 0; i < 200 && model->num_live_edges() > 0; ++i) {
    ASSERT_TRUE(model->Ingest({}).ok());
  }
  ASSERT_EQ(model->num_live_edges(), 0u);
  auto before = model->PublishShardedSnapshot();
  ASSERT_NE(before, nullptr);
  const ChunkedMatrix& old_rows = before->shard(0)->center();
  ASSERT_GT(old_rows.num_chunks(), 3u);

  TokenizedRecord novel;
  novel.user_id = 1 << 30;
  novel.timestamp = 7 * 3600.0;
  novel.location = {5000.0, 5000.0};
  novel.word_ids = {1 << 20, (1 << 20) + 1};
  ASSERT_TRUE(model->Ingest({novel}).ok());
  auto after = model->PublishShardedSnapshot();
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->version(), before->version());
  const ChunkedMatrix& new_rows = after->shard(0)->center();
  EXPECT_GE(new_rows.SharedChunksWith(old_rows), old_rows.num_chunks() - 2);

  // Sharing never trades exactness: the delta equals the live model.
  const EmbeddingMatrix live = model->GatherCenter();
  ASSERT_EQ(new_rows.rows(), live.rows());
  for (int32_t r = 0; r < live.rows(); ++r) {
    ASSERT_EQ(std::memcmp(new_rows.row(r), live.row(r),
                          sizeof(float) * static_cast<std::size_t>(
                                              live.dim())),
              0)
        << "row " << r;
  }
}

TEST(DeltaPublishTest, PublishWithoutIngestIsANoOp) {
  const auto batches = MakeBatches(600, 2);
  auto model = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  auto first = model->PublishShardedSnapshot();
  ASSERT_NE(first, nullptr);
  // No Ingest() in between: the model version is unchanged, so publish
  // must hand back the already-published composite, not a new copy — and
  // the flat bridge follows the same rule.
  auto second = model->PublishShardedSnapshot();
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(model->CurrentShardedSnapshot().get(), first.get());
  auto flat = model->PublishSnapshot();
  EXPECT_EQ(model->PublishSnapshot().get(), flat.get());
  // The next real batch resumes normal (new-snapshot) publishes.
  ASSERT_TRUE(model->Ingest(batches[1]).ok());
  auto third = model->PublishShardedSnapshot();
  ASSERT_NE(third, nullptr);
  EXPECT_NE(third.get(), first.get());
  EXPECT_GT(third->version(), first->version());
}

// --- Snapshot isolation under interleaved delta publishes ------------------

TEST(DeltaPublishTest, OldSnapshotStaysFrozenWhileNewChunksLand) {
  const auto batches = MakeBatches(900, 4);
  OnlineActorOptions options = FastOnlineOptions();
  options.num_shards = 2;
  auto model = OnlineActor::Create(options);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  auto held = model->PublishShardedSnapshot();
  ASSERT_NE(held, nullptr);

  // Copy every shard's rows and a query result of the held composite.
  std::vector<std::vector<float>> frozen;
  for (int s = 0; s < held->num_shards(); ++s) {
    const ChunkedMatrix& rows = held->shard(s)->center();
    for (int32_t r = 0; r < rows.rows(); ++r) {
      frozen.emplace_back(rows.row(r), rows.row(r) + rows.dim());
    }
  }
  ShardedQueryEngine held_engine(held);
  const GeoPoint probe = batches[0].front().location;
  auto before = held_engine.QueryByLocation(probe, VertexType::kWord, 8);
  ASSERT_TRUE(before.ok());

  // Keep training and delta-publishing over the held snapshot's chunks.
  uint64_t last_version = held->version();
  for (std::size_t b = 1; b < batches.size(); ++b) {
    ASSERT_TRUE(model->Ingest(batches[b]).ok());
    auto snap = model->PublishShardedSnapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_GT(snap->version(), last_version);  // monotone under deltas
    last_version = snap->version();
  }

  // The held composite must be byte-for-byte what it was at acquire time —
  // later publishes swap chunk pointers, never chunk contents.
  std::size_t i = 0;
  for (int s = 0; s < held->num_shards(); ++s) {
    const ChunkedMatrix& rows = held->shard(s)->center();
    for (int32_t r = 0; r < rows.rows(); ++r, ++i) {
      EXPECT_EQ(std::memcmp(frozen[i].data(), rows.row(r),
                            sizeof(float) * static_cast<std::size_t>(
                                                rows.dim())),
                0)
          << "shard " << s << " row " << r << " mutated under the held "
          << "snapshot";
    }
  }
  auto after = held_engine.QueryByLocation(probe, VertexType::kWord, 8);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(SameNeighbors(*before, *after));
}

TEST(DeltaPublishTest, InterleavedTrainerPublishesStayMonotonePerTrainer) {
  // One SnapshotStore fed by both trainers (the serving layer does not
  // care who published): each trainer's own version sequence must be
  // strictly increasing, and the store always serves the latest publish.
  PipelineOptions pipeline = UTGeoPipeline(0.1);
  pipeline.synthetic.num_records = 1200;
  auto prepared = PrepareDataset(pipeline, "delta-interleave");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ActorOptions actor_options;
  actor_options.dim = 16;
  actor_options.epochs = 1;
  actor_options.samples_per_edge = 1;
  auto batch_model = TrainActor(*prepared->graphs, actor_options);
  ASSERT_TRUE(batch_model.ok()) << batch_model.status().ToString();

  const auto batches = MakeBatches(900, 3);
  auto online = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(online.ok());

  SnapshotStore store;
  // Batch publish #1.
  auto batch_snap = PublishActorModel(*batch_model, prepared->graphs,
                                      prepared->hotspots, prepared->vocab);
  ASSERT_NE(batch_snap, nullptr);
  store.Publish(batch_snap);
  EXPECT_EQ(store.Acquire().get(), batch_snap.get());

  uint64_t online_version = 0;
  for (const auto& batch : batches) {
    ASSERT_TRUE(online->Ingest(batch).ok());
    auto online_snap = online->PublishSnapshot();
    ASSERT_NE(online_snap, nullptr);
    EXPECT_GT(online_snap->version(), online_version);
    online_version = online_snap->version();
    store.Publish(online_snap);
    EXPECT_EQ(store.Acquire().get(), online_snap.get());
  }

  // Batch publish #2 after the model changed: nudge one center row and
  // republish (a batch publish is always a full copy).
  const uint64_t batch_version = batch_snap->version();
  std::vector<float> nudged(static_cast<std::size_t>(actor_options.dim),
                            0.25f);
  batch_model->center.SetRow(0, nudged.data());
  batch_model->stats.edge_steps += 1;  // version bump source
  auto batch_republish = PublishActorModel(*batch_model, prepared->graphs,
                                           prepared->hotspots, prepared->vocab);
  ASSERT_NE(batch_republish, nullptr);
  EXPECT_GT(batch_republish->version(), batch_version);
  store.Publish(batch_republish);
  EXPECT_EQ(store.Acquire().get(), batch_republish.get());

  // The republish carries the nudge, and the held first snapshot still
  // serves the pre-nudge row.
  EXPECT_EQ(batch_republish->center().row(0)[0], 0.25f);
  EXPECT_NE(batch_snap->center().row(0)[0], 0.25f);
  for (int32_t r = 1; r < batch_snap->num_units(); ++r) {
    ASSERT_EQ(std::memcmp(batch_republish->center().row(r),
                          batch_snap->center().row(r),
                          sizeof(float) * static_cast<std::size_t>(
                              batch_snap->dim())),
              0);
  }
}

}  // namespace
}  // namespace actor
