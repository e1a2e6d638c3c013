#include "core/online_actor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "data/synthetic.h"
#include "eval/mrr.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace actor {
namespace {

/// Tokenizes a synthetic dataset into batches of equal size.
std::vector<std::vector<TokenizedRecord>> MakeBatches(int records,
                                                      int batches,
                                                      uint64_t seed = 5) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_records = records;
  config.num_users = 80;
  config.num_communities = 4;
  config.num_topics = 6;
  config.num_venues = 16;
  config.keywords_per_topic = 20;
  config.background_vocab = 40;
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

OnlineActorOptions FastOptions() {
  OnlineActorOptions o;
  o.dim = 16;
  o.samples_per_edge_per_batch = 2.0;
  return o;
}

TEST(OnlineActorTest, CreateValidatesOptions) {
  OnlineActorOptions o = FastOptions();
  o.dim = 0;
  EXPECT_TRUE(OnlineActor::Create(o).status().IsInvalidArgument());
  o = FastOptions();
  o.decay_per_batch = 0.0;
  EXPECT_TRUE(OnlineActor::Create(o).status().IsInvalidArgument());
  o = FastOptions();
  o.decay_per_batch = 1.5;
  EXPECT_TRUE(OnlineActor::Create(o).status().IsInvalidArgument());
  o = FastOptions();
  o.samples_per_edge_per_batch = 0.0;
  EXPECT_TRUE(OnlineActor::Create(o).status().IsInvalidArgument());
  // One pipeline: at least one shard, and the default is exactly one.
  o = FastOptions();
  o.num_shards = 0;
  EXPECT_TRUE(OnlineActor::Create(o).status().IsInvalidArgument());
  o.num_shards = -1;
  EXPECT_TRUE(OnlineActor::Create(o).status().IsInvalidArgument());
  auto model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_shards(), 1);
}

TEST(OnlineActorTest, IngestRejectsNonFiniteRecords) {
  // Validation happens at the Ingest boundary, for the whole batch, before
  // any state changes: a bad batch must neither spawn units nor decay,
  // accumulate, train or count as a batch.
  auto model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(600, 2);
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  const int32_t units = model->num_units();
  const std::size_t live = model->num_live_edges();
  const std::size_t spatial = model->num_spatial_hotspots();
  const std::size_t temporal = model->num_temporal_hotspots();
  const int64_t ingested = model->batches_ingested();
  auto expect_unchanged = [&] {
    EXPECT_EQ(model->num_units(), units);
    EXPECT_EQ(model->num_live_edges(), live);
    EXPECT_EQ(model->num_spatial_hotspots(), spatial);
    EXPECT_EQ(model->num_temporal_hotspots(), temporal);
    EXPECT_EQ(model->batches_ingested(), ingested);
  };

  // NaN never compares below a hotspot distance, so unchecked, every one
  // of these records would spawn its own spatial hotspot.
  std::vector<TokenizedRecord> nan_batch(batches[1].begin(),
                                         batches[1].begin() + 100);
  for (TokenizedRecord& rec : nan_batch) rec.location.x = std::nan("");
  EXPECT_TRUE(model->Ingest(nan_batch).IsInvalidArgument());
  expect_unchanged();

  // One infinite timestamp after valid records: the valid prefix must not
  // be applied either.
  std::vector<TokenizedRecord> inf_batch(batches[1].begin(),
                                         batches[1].begin() + 50);
  inf_batch.back().timestamp = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(model->Ingest(inf_batch).IsInvalidArgument());
  expect_unchanged();

  std::vector<TokenizedRecord> inf_y = {batches[1].front()};
  inf_y[0].location.y = -std::numeric_limits<double>::infinity();
  EXPECT_TRUE(model->Ingest(inf_y).IsInvalidArgument());
  expect_unchanged();

  // The stream continues normally afterwards.
  ASSERT_TRUE(model->Ingest(batches[1]).ok());
  EXPECT_EQ(model->batches_ingested(), ingested + 1);
}

TEST(OnlineActorTest, EmptyBatchIsAPureDecayTick) {
  // Sparse-stream mode: an empty batch means a time slice passed with no
  // observations. It must succeed, count as a batch, decay the live
  // edges, and leave the model ready for the next real batch.
  auto model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Ingest({}).ok());  // decay tick on an empty model
  EXPECT_EQ(model->batches_ingested(), 1);

  const auto batches = MakeBatches(600, 3);
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  const std::size_t live_before = model->num_live_edges();
  ASSERT_GT(live_before, 0u);
  // Enough consecutive decay ticks push every weight below the drop
  // threshold; the edge set must shrink, proving DecayEdges really ran.
  for (int i = 0; i < 64 && model->num_live_edges() > 0; ++i) {
    ASSERT_TRUE(model->Ingest({}).ok());
  }
  EXPECT_LT(model->num_live_edges(), live_before);
  EXPECT_GE(model->batches_ingested(), 3);

  // The stream recovers: a real batch after the quiet period trains fine.
  ASSERT_TRUE(model->Ingest(batches[1]).ok());
  EXPECT_GT(model->num_live_edges(), 0u);
}

TEST(OnlineActorTest, UnitsGrowWithData) {
  auto model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(1200, 3);
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  const int32_t units_after_one = model->num_units();
  EXPECT_GT(units_after_one, 0);
  EXPECT_GT(model->num_spatial_hotspots(), 0u);
  EXPECT_GT(model->num_temporal_hotspots(), 0u);
  EXPECT_GT(model->num_live_edges(), 0u);
  ASSERT_TRUE(model->Ingest(batches[1]).ok());
  EXPECT_GE(model->num_units(), units_after_one);
  EXPECT_EQ(model->batches_ingested(), 2);
}

TEST(OnlineActorTest, SpatialHotspotSpawnRespectsThreshold) {
  OnlineActorOptions o = FastOptions();
  o.new_spatial_hotspot_km = 5.0;
  auto model = OnlineActor::Create(o);
  ASSERT_TRUE(model.ok());
  TokenizedRecord near_a;
  near_a.timestamp = 9 * 3600.0;
  near_a.location = {10, 10};
  near_a.word_ids = {0};
  TokenizedRecord near_b = near_a;
  near_b.location = {11, 11};  // within 5 km of the first
  TokenizedRecord far = near_a;
  far.location = {30, 30};
  ASSERT_TRUE(model->Ingest({near_a, near_b, far}).ok());
  EXPECT_EQ(model->num_spatial_hotspots(), 2u);
  EXPECT_EQ(model->SpatialUnit({10.5, 10.5}),
            model->SpatialUnit({10.0, 10.0}));
  EXPECT_NE(model->SpatialUnit({30, 30}), model->SpatialUnit({10, 10}));
}

TEST(OnlineActorTest, TemporalHotspotWrapsMidnight) {
  OnlineActorOptions o = FastOptions();
  o.new_temporal_hotspot_hours = 1.0;
  auto model = OnlineActor::Create(o);
  ASSERT_TRUE(model.ok());
  TokenizedRecord late;
  late.timestamp = 23.8 * 3600.0;
  late.location = {1, 1};
  late.word_ids = {0};
  TokenizedRecord early = late;
  early.timestamp = 24.2 * 3600.0;  // 00:12 next day, circularly close
  ASSERT_TRUE(model->Ingest({late, early}).ok());
  EXPECT_EQ(model->num_temporal_hotspots(), 1u);
}

TEST(OnlineActorTest, WordsAndUsersDeduplicated) {
  auto model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(model.ok());
  TokenizedRecord r1;
  r1.user_id = 7;
  r1.timestamp = 3600.0;
  r1.location = {1, 1};
  r1.word_ids = {3, 4};
  TokenizedRecord r2 = r1;  // same user, same words
  ASSERT_TRUE(model->Ingest({r1, r2}).ok());
  // 1 time + 1 location + 2 words + 1 user.
  EXPECT_EQ(model->num_units(), 5);
  EXPECT_NE(model->WordUnit(3), kInvalidVertex);
  EXPECT_EQ(model->WordUnit(99), kInvalidVertex);
}

TEST(OnlineActorTest, DecayDropsStaleEdges) {
  OnlineActorOptions o = FastOptions();
  o.decay_per_batch = 0.3;
  o.min_edge_weight = 0.2;
  auto model = OnlineActor::Create(o);
  ASSERT_TRUE(model.ok());
  TokenizedRecord stale;
  stale.user_id = 1;
  stale.timestamp = 3600.0;
  stale.location = {1, 1};
  stale.word_ids = {0, 1};
  ASSERT_TRUE(model->Ingest({stale}).ok());
  const std::size_t live_before = model->num_live_edges();
  ASSERT_GT(live_before, 0u);
  // Ingest unrelated batches; the original co-occurrences decay away.
  TokenizedRecord fresh;
  fresh.user_id = 2;
  fresh.timestamp = 12 * 3600.0;
  fresh.location = {30, 30};
  fresh.word_ids = {5, 6};
  ASSERT_TRUE(model->Ingest({fresh}).ok());
  ASSERT_TRUE(model->Ingest({fresh}).ok());
  ASSERT_TRUE(model->Ingest({fresh}).ok());
  // Stale pair 0-1 must be gone: only the fresh record's edges survive.
  EXPECT_LT(model->num_live_edges(), live_before + 14);
  // Units are never removed.
  EXPECT_NE(model->WordUnit(0), kInvalidVertex);
}

TEST(OnlineActorTest, NoDecayKeepsEdges) {
  OnlineActorOptions o = FastOptions();
  o.decay_per_batch = 1.0;
  auto model = OnlineActor::Create(o);
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(600, 2, 9);
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  const std::size_t live = model->num_live_edges();
  ASSERT_TRUE(model->Ingest(batches[1]).ok());
  EXPECT_GE(model->num_live_edges(), live);
}

TEST(OnlineActorTest, LearnsCrossModalStructure) {
  OnlineActorOptions options = FastOptions();
  options.samples_per_edge_per_batch = 6.0;
  auto model = OnlineActor::Create(options);
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(3000, 3, 13);
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  ASSERT_TRUE(model->Ingest(batches[1]).ok());

  // Prequential check on the held-out third batch: rank the true
  // location unit against 10 *distinct* noise locations (the test world
  // has few venues, so noise records sharing the truth's hotspot are
  // skipped — a tie against oneself is not an error signal).
  Rng rng(3);
  std::vector<int> ranks;
  const auto& test = batches[2];
  for (std::size_t q = 0; q < std::min<std::size_t>(test.size(), 300); ++q) {
    const VertexId truth_unit = model->SpatialUnit(test[q].location);
    if (truth_unit == kInvalidVertex) continue;
    const double truth = model->ScoreRecordAgainstUnit(test[q], truth_unit);
    std::vector<double> noise;
    int attempts = 0;
    while (static_cast<int>(noise.size()) < 10 && attempts++ < 200) {
      const auto& other = test[rng.Uniform(test.size())];
      const VertexId unit = model->SpatialUnit(other.location);
      if (unit == truth_unit || unit == kInvalidVertex) continue;
      noise.push_back(model->ScoreRecordAgainstUnit(test[q], unit));
    }
    if (noise.size() < 10) continue;
    ranks.push_back(RankOfTruth(truth, noise));
  }
  ASSERT_GT(ranks.size(), 100u);
  // Random guessing gives ~0.27; the online model must do much better.
  EXPECT_GT(MeanReciprocalRank(ranks), 0.45);
}

TEST(OnlineActorTest, DeterministicForSeed) {
  const auto batches = MakeBatches(800, 1, 21);
  auto a = OnlineActor::Create(FastOptions());
  auto b = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->Ingest(batches[0]).ok());
  ASSERT_TRUE(b->Ingest(batches[0]).ok());
  ASSERT_EQ(a->num_units(), b->num_units());
  for (VertexId v = 0; v < a->num_units(); ++v) {
    for (int d = 0; d < 16; ++d) {
      ASSERT_FLOAT_EQ(a->center().row(v)[d], b->center().row(v)[d]);
    }
  }
}

TEST(OnlineActorTest, SingleThreadWithExternalPoolBitIdenticalToNoPool) {
  // The PR 2 contract, extended to the streaming path: num_threads <= 1
  // must ignore any provided pool entirely and stay on the sequential,
  // bit-deterministic code path.
  const auto batches = MakeBatches(800, 2, 21);
  ThreadPool pool(4);
  OnlineActorOptions with_pool = FastOptions();
  with_pool.num_threads = 1;
  with_pool.pool = &pool;
  auto a = OnlineActor::Create(with_pool);
  auto b = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  for (const auto& batch : batches) {
    ASSERT_TRUE(a->Ingest(batch).ok());
    ASSERT_TRUE(b->Ingest(batch).ok());
  }
  ASSERT_EQ(a->num_units(), b->num_units());
  for (VertexId v = 0; v < a->num_units(); ++v) {
    for (int d = 0; d < 16; ++d) {
      ASSERT_FLOAT_EQ(a->center().row(v)[d], b->center().row(v)[d]);
    }
  }
}

TEST(OnlineActorTest, IncrementalSamplerMatchesFullRebuildDeterministically) {
  // On the sequential path the cached in-place sampler rebuild must be an
  // exact optimization: same draws, same updates, same embeddings as
  // reconstructing every sampler from scratch each batch.
  const auto batches = MakeBatches(800, 3, 21);
  OnlineActorOptions incremental = FastOptions();
  incremental.incremental_sampler = true;
  OnlineActorOptions full = FastOptions();
  full.incremental_sampler = false;
  auto a = OnlineActor::Create(incremental);
  auto b = OnlineActor::Create(full);
  ASSERT_TRUE(a.ok() && b.ok());
  for (const auto& batch : batches) {
    ASSERT_TRUE(a->Ingest(batch).ok());
    ASSERT_TRUE(b->Ingest(batch).ok());
  }
  ASSERT_EQ(a->num_units(), b->num_units());
  for (VertexId v = 0; v < a->num_units(); ++v) {
    for (int d = 0; d < 16; ++d) {
      ASSERT_FLOAT_EQ(a->center().row(v)[d], b->center().row(v)[d]);
    }
  }
}

TEST(OnlineActorTest, MultiThreadIngestLearnsStructure) {
  // Four shards trained on four workers: cross-shard context rows are
  // read through per-batch tile copies, which costs a little quality, but
  // the space must still converge and keep every vector finite.
  const auto batches = MakeBatches(2000, 4, 9);
  OnlineActorOptions options = FastOptions();
  options.num_shards = 4;
  options.num_threads = 4;
  options.samples_per_edge_per_batch = 4.0;
  auto model = OnlineActor::Create(options);
  ASSERT_TRUE(model.ok());
  for (const auto& batch : batches) {
    ASSERT_TRUE(model->Ingest(batch).ok());
  }
  const EmbeddingMatrix center = model->GatherCenter();
  for (VertexId v = 0; v < model->num_units(); ++v) {
    for (int d = 0; d < 16; ++d) {
      ASSERT_TRUE(std::isfinite(center.row(v)[d]));
    }
  }
  // Same prequential ranking as LearnsCrossModalStructure, looser bar:
  // stale remote tiles cost a little quality but the space must stay
  // usable.
  Rng rng(3);
  std::vector<int> ranks;
  const auto& test = batches.back();
  for (std::size_t q = 0; q < std::min<std::size_t>(test.size(), 300); ++q) {
    const VertexId truth_unit = model->SpatialUnit(test[q].location);
    if (truth_unit == kInvalidVertex) continue;
    const double truth = model->ScoreRecordAgainstUnit(test[q], truth_unit);
    std::vector<double> noise;
    int attempts = 0;
    while (static_cast<int>(noise.size()) < 10 && attempts++ < 200) {
      const auto& other = test[rng.Uniform(test.size())];
      const VertexId unit = model->SpatialUnit(other.location);
      if (unit == truth_unit || unit == kInvalidVertex) continue;
      noise.push_back(model->ScoreRecordAgainstUnit(test[q], unit));
    }
    if (noise.size() < 10) continue;
    ranks.push_back(RankOfTruth(truth, noise));
  }
  ASSERT_GT(ranks.size(), 50u);
  EXPECT_GT(MeanReciprocalRank(ranks), 0.35)
      << "multi-thread streaming space degenerated";
}

}  // namespace
}  // namespace actor
