#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/online_actor.h"
#include "data/synthetic.h"
#include "serve/query_engine.h"
#include "shard/sharded_query_engine.h"
#include "util/thread_pool.h"
#include "util/vec_math.h"

namespace actor {
namespace {

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

void ExpectBitIdentical(const EmbeddingMatrix& a, const EmbeddingMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.dim(), b.dim());
  for (int32_t r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(std::memcmp(a.row(r), b.row(r),
                          sizeof(float) * static_cast<std::size_t>(a.dim())),
              0)
        << "row " << r << " differs";
  }
}

// FNV-1a over raw bytes: a compact, order-sensitive fingerprint of a
// float matrix or a result list.
struct Fnv1a {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
};

struct PipelineDigest {
  uint64_t center = 0;
  uint64_t topk = 0;
};

// Trains default options on the MakeBatches(900, 3) stream and digests the
// gathered center matrix plus the flat snapshot's version and top-10
// QueryByHour results (hours 8 and 20, every vertex type).
PipelineDigest DigestDefaultPipeline() {
  PipelineDigest digest;
  auto model = OnlineActor::Create(FastOptions());
  EXPECT_TRUE(model.ok());
  if (!model.ok()) return digest;
  for (const auto& batch : MakeBatches(900, 3)) {
    EXPECT_TRUE(model->Ingest(batch).ok());
  }
  Fnv1a center;
  const EmbeddingMatrix gathered = model->GatherCenter();
  for (int32_t r = 0; r < gathered.rows(); ++r) {
    center.Bytes(gathered.row(r),
                 sizeof(float) * static_cast<std::size_t>(gathered.dim()));
  }
  auto snapshot = model->PublishSnapshot();
  QueryEngine engine(snapshot);
  Fnv1a topk;
  const uint64_t version = snapshot->version();
  topk.Bytes(&version, sizeof(version));
  for (double hour : {8.0, 20.0}) {
    for (VertexType type : {VertexType::kWord, VertexType::kLocation,
                            VertexType::kUser, VertexType::kTime}) {
      auto result = engine.QueryByHour(hour, type, 10);
      if (!result.ok()) continue;
      for (const Neighbor& n : *result) {
        topk.Bytes(&n.vertex, sizeof(n.vertex));
        topk.Bytes(&n.similarity, sizeof(n.similarity));
      }
    }
  }
  digest.center = center.h;
  digest.topk = topk.h;
  return digest;
}

// Pins the trained values of the single-shard pipeline. The digests were
// recorded from the sample-split HOGWILD trainer this pipeline replaced
// (its num_shards=0 and num_shards=1 modes gave the same bits), so any
// change to the trainer's arithmetic, sampling order or seeding fails
// here. Each kernel backend has its own digest; the relaxed kernels
// compute exactly what the scalar ones do. FP contraction (-march=native
// on an FMA host fuses a*b+c) changes the bits, so such builds are not
// covered.
TEST(ShardOnlineActorTest, DefaultPipelineMatchesRecordedDigests) {
#if defined(__FMA__)
  GTEST_SKIP() << "digests are recorded without FP contraction";
#endif
  struct Golden {
    VecBackend backend;
    PipelineDigest digest;
  };
  const Golden goldens[] = {
      {VecBackend::kScalar, {0xa5243f8a6a881693ull, 0xc40b48c78c42e36cull}},
      {VecBackend::kRelaxed, {0xa5243f8a6a881693ull, 0xc40b48c78c42e36cull}},
      {VecBackend::kAvx2, {0xd265b5814c965874ull, 0x8dff5337b7bbfd69ull}},
  };
  const VecBackend original = ActiveVecBackend();
  int checked = 0;
  for (const Golden& golden : goldens) {
    // A backend the host or build cannot install (AVX2 absent; TSan
    // builds install only the relaxed kernels) is skipped.
    if (SetVecBackend(golden.backend) != golden.backend) continue;
    const PipelineDigest digest = DigestDefaultPipeline();
    EXPECT_EQ(digest.center, golden.digest.center)
        << VecBackendName(golden.backend) << " center digest";
    EXPECT_EQ(digest.topk, golden.digest.topk)
        << VecBackendName(golden.backend) << " top-k digest";
    ++checked;
  }
  SetVecBackend(original);
  EXPECT_GT(checked, 0);
}

// The default actor is the single-shard pipeline, and the flat bridge
// snapshot serves exactly what the one-shard composite serves.
TEST(ShardOnlineActorTest, DefaultSingleShardFlatBridgeMatchesComposite) {
  auto model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_shards(), 1);

  const auto batches = MakeBatches(900, 3);
  for (const auto& batch : batches) {
    ASSERT_TRUE(model->Ingest(batch).ok());
  }
  ASSERT_EQ(model->center().rows(), model->num_units());

  // Both publishes stamp the same version and the same rows.
  auto flat_snap = model->PublishSnapshot();
  auto composite = model->PublishShardedSnapshot();
  ASSERT_NE(flat_snap, nullptr);
  ASSERT_NE(composite, nullptr);
  EXPECT_EQ(flat_snap->version(), composite->version());
  ASSERT_EQ(flat_snap->num_units(), composite->num_units());
  ASSERT_EQ(composite->num_shards(), 1);
  for (VertexId v = 0; v < flat_snap->num_units(); ++v) {
    ASSERT_EQ(std::memcmp(flat_snap->center().row(v),
                          composite->shard(0)->center().row(v),
                          sizeof(float) * static_cast<std::size_t>(
                                              flat_snap->dim())),
              0)
        << "vertex " << v;
  }

  // And the two serving paths return identical results on them.
  QueryEngine flat(flat_snap);
  ShardedQueryEngine scatter(composite);
  auto expect_same = [&](VertexType type) {
    auto a = flat.QueryByHour(20.0, type, 7);
    auto b = scatter.QueryByHour(20.0, type, 7);
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) return;
    ASSERT_EQ(a->size(), b->size());
    for (std::size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].vertex, (*b)[i].vertex);
      EXPECT_EQ((*a)[i].similarity, (*b)[i].similarity);
      EXPECT_EQ((*a)[i].name, (*b)[i].name);
      EXPECT_EQ((*a)[i].type, (*b)[i].type);
    }
  };
  expect_same(VertexType::kWord);
  expect_same(VertexType::kLocation);
  expect_same(VertexType::kUser);
}

// Each shard epoch writes only shard-owned state (remote context rows go
// to private tile copies), so the result cannot depend on scheduling: one
// worker or many, same bits.
TEST(ShardOnlineActorTest, ShardedDeterministicAcrossThreadCounts) {
  OnlineActorOptions seq_opts = FastOptions();
  seq_opts.num_shards = 4;
  OnlineActorOptions par_opts = seq_opts;
  par_opts.num_threads = 4;
  auto seq = OnlineActor::Create(seq_opts);
  auto par = OnlineActor::Create(par_opts);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());

  const auto batches = MakeBatches(900, 3);
  for (const auto& batch : batches) {
    ASSERT_TRUE(seq->Ingest(batch).ok());
    ASSERT_TRUE(par->Ingest(batch).ok());
  }
  ExpectBitIdentical(seq->GatherCenter(), par->GatherCenter());
}

TEST(ShardOnlineActorTest, CrossShardEdgesResolveThroughRemoteTileCache) {
  OnlineActorOptions opts = FastOptions();
  opts.num_shards = 2;
  auto model = OnlineActor::Create(opts);
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(600, 2);
  for (const auto& batch : batches) ASSERT_TRUE(model->Ingest(batch).ok());

  // Hash partitioning over a connected co-occurrence graph guarantees
  // cross-shard edges, and every one of them must have pulled its remote
  // endpoint's context row into the owner's tile cache at the barrier.
  ASSERT_EQ(model->num_shards(), 2);
  std::size_t tile_rows = 0;
  for (int s = 0; s < model->num_shards(); ++s) {
    tile_rows += model->remote_tile_rows(s);
  }
  EXPECT_GT(tile_rows, 0u);
  // The training outcome stays finite and valid across both shards.
  for (int s = 0; s < model->num_shards(); ++s) {
    EXPECT_TRUE(model->center_shard(s).DebugValidate());
  }
}

// Per-shard delta publishes must produce exactly the state full publishes
// do — the chunk-COW sharing is an optimization, never a semantic change
// (the sharded analogue of serve_delta_publish_test).
TEST(ShardOnlineActorTest, ShardedPublishDeltaMatchesFull) {
  OnlineActorOptions delta_opts = FastOptions();
  delta_opts.num_shards = 2;
  delta_opts.delta_publish = true;
  OnlineActorOptions full_opts = delta_opts;
  full_opts.delta_publish = false;
  auto delta_model = OnlineActor::Create(delta_opts);
  auto full_model = OnlineActor::Create(full_opts);
  ASSERT_TRUE(delta_model.ok());
  ASSERT_TRUE(full_model.ok());

  const auto batches = MakeBatches(900, 3);
  std::shared_ptr<const ShardedModelSnapshot> delta_snap, full_snap;
  for (const auto& batch : batches) {
    ASSERT_TRUE(delta_model->Ingest(batch).ok());
    ASSERT_TRUE(full_model->Ingest(batch).ok());
    // Publishing every batch exercises the delta path against a fresh
    // previous snapshot (grown unit set and steady-state both covered).
    delta_snap = delta_model->PublishShardedSnapshot();
    full_snap = full_model->PublishShardedSnapshot();
    ASSERT_NE(delta_snap, nullptr);
    ASSERT_NE(full_snap, nullptr);
    ASSERT_EQ(delta_snap->version(), full_snap->version());
    ASSERT_EQ(delta_snap->num_units(), full_snap->num_units());
    for (int s = 0; s < delta_snap->num_shards(); ++s) {
      const auto& a = delta_snap->shard(s)->center();
      const auto& b = full_snap->shard(s)->center();
      ASSERT_EQ(a.rows(), b.rows());
      for (int32_t r = 0; r < a.rows(); ++r) {
        ASSERT_EQ(std::memcmp(a.row(r), b.row(r),
                              sizeof(float) *
                                  static_cast<std::size_t>(a.dim())),
                  0)
            << "shard " << s << " row " << r << " differs";
      }
    }
  }
  // Unchanged model => publish is a no-op returning the same composite.
  EXPECT_EQ(delta_model->PublishShardedSnapshot(), delta_snap);
}

// The flat bridge is a full gather that touches no dirty set, so mixing it
// with composite publishes must leave the per-shard deltas exact.
TEST(ShardOnlineActorTest, FlatAndShardedPublishesCoexist) {
  OnlineActorOptions opts = FastOptions();
  opts.num_shards = 2;
  auto model = OnlineActor::Create(opts);
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(600, 2);
  for (const auto& batch : batches) {
    ASSERT_TRUE(model->Ingest(batch).ok());
    auto flat = model->PublishSnapshot();
    auto sharded = model->PublishShardedSnapshot();
    ASSERT_NE(flat, nullptr);
    ASSERT_NE(sharded, nullptr);
    EXPECT_EQ(flat->version(), sharded->version());
    EXPECT_EQ(flat->num_units(), sharded->num_units());
    // The flat snapshot is the gathered composite: every global row equals
    // its owner shard's local row.
    const ShardMapSnapshot& map = sharded->map();
    for (VertexId v = 0; v < map.num_vertices(); ++v) {
      const int s = map.owner[static_cast<std::size_t>(v)];
      const float* shard_row = sharded->shard(s)->center().row(
          map.local[static_cast<std::size_t>(v)]);
      ASSERT_EQ(std::memcmp(flat->center().row(v), shard_row,
                            sizeof(float) * static_cast<std::size_t>(
                                                flat->center().dim())),
                0)
          << "vertex " << v;
    }
  }
}

}  // namespace
}  // namespace actor
