// Multi-threaded HOGWILD smoke tests, labeled `tsan` in tests/CMakeLists.
// Under the `tsan` preset (ACTOR_ENABLE_TSAN=ON) the shared-row kernels run
// through relaxed std::atomic_ref accessors and ThreadSanitizer verifies
// there are no *unintentional* races across TrainActor, LINE, and the
// skip-gram walk trainer; `ctest --preset tsan` must pass with zero
// reports. In regular builds these double as plain concurrency smoke tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/actor.h"
#include "core/online_actor.h"
#include "data/synthetic.h"
#include "embedding/line.h"
#include "embedding/skipgram.h"
#include "eval/pipeline.h"
#include "serve/query_engine.h"
#include "shard/sharded_query_engine.h"
#include "util/thread_pool.h"
#include "util/vec_math.h"

namespace actor {
namespace {

constexpr int kThreads = 4;

// Template: covers both the trainers' flat EmbeddingMatrix and the
// snapshots' chunk-COW ChunkedMatrix (same row(i)/rows()/dim() surface).
template <typename Matrix>
bool AllFinite(const Matrix& m) {
  for (int32_t r = 0; r < m.rows(); ++r) {
    for (int32_t d = 0; d < m.dim(); ++d) {
      if (!std::isfinite(m.row(r)[d])) return false;
    }
  }
  return true;
}

/// Dense-ish L-W graph: every location connects to every word, words form
/// a clique. Small enough for TSan's slowdown, dense enough that shards
/// collide on rows constantly (the interesting case for race detection).
Heterograph DenseGraph(int locations, int words) {
  Heterograph g;
  std::vector<VertexId> locs, ws;
  for (int i = 0; i < locations; ++i) {
    locs.push_back(g.AddVertex(VertexType::kLocation, "L" + std::to_string(i)));
  }
  for (int i = 0; i < words; ++i) {
    ws.push_back(g.AddVertex(VertexType::kWord, "w" + std::to_string(i)));
  }
  for (VertexId l : locs) {
    for (VertexId w : ws) EXPECT_TRUE(g.AccumulateEdge(l, w, 2.0).ok());
  }
  for (std::size_t i = 0; i < ws.size(); ++i) {
    for (std::size_t j = i + 1; j < ws.size(); ++j) {
      EXPECT_TRUE(g.AccumulateEdge(ws[i], ws[j], 1.0).ok());
    }
  }
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

TEST(ConcurrencyTsanTest, TrainActorMultiThreadOnSharedPool) {
  PipelineOptions pipeline = UTGeoPipeline(0.1);
  pipeline.synthetic.num_records = 1200;
  pipeline.synthetic.seed = 99;
  auto prepared = PrepareDataset(pipeline, "tsan-actor");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  ThreadPool pool(kThreads);
  ActorOptions options;
  options.dim = 16;
  options.epochs = 2;
  options.samples_per_edge = 2;
  options.num_threads = kThreads;
  options.pool = &pool;
  auto model = TrainActor(*prepared->graphs, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(model->stats.edge_steps, 0);
  EXPECT_TRUE(AllFinite(model->center));
  EXPECT_TRUE(AllFinite(model->context));
}

TEST(ConcurrencyTsanTest, TrainLineMultiThread) {
  Heterograph g = DenseGraph(4, 24);
  LineOptions options;
  options.dim = 16;
  options.order = 2;
  options.samples_per_edge = 40;
  options.num_threads = kThreads;
  auto embedding = TrainLine(g, options);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  EXPECT_TRUE(AllFinite(embedding->center));
  EXPECT_TRUE(AllFinite(embedding->context));
}

TEST(ConcurrencyTsanTest, TrainSkipGramMultiThread) {
  Heterograph g = DenseGraph(4, 24);
  // Synthetic walks cycling through every vertex so all shards touch all
  // rows of the shared matrices.
  std::vector<std::vector<VertexId>> walks;
  const int32_t n = g.num_vertices();
  for (int w = 0; w < 24; ++w) {
    std::vector<VertexId> walk;
    for (int i = 0; i < 20; ++i) {
      walk.push_back(static_cast<VertexId>((w * 7 + i * 3) % n));
    }
    walks.push_back(std::move(walk));
  }
  SkipGramOptions options;
  options.dim = 16;
  options.epochs = 2;
  options.num_threads = kThreads;
  auto embedding = TrainSkipGramOnWalks(g, walks, options);
  ASSERT_TRUE(embedding.ok()) << embedding.status().ToString();
  EXPECT_TRUE(AllFinite(embedding->center));
  EXPECT_TRUE(AllFinite(embedding->context));
}

TEST(ConcurrencyTsanTest, OnlineActorIngestMultiThread) {
  // Streaming path: kThreads shard epochs run concurrently on the pool,
  // each writing only its own rows, dirty set and remote-tile copies while
  // reading the shared edge stores and ownership map — TSan must see no
  // race between them. Exercises decay, drops, remote-tile refreshes and
  // incremental sampler rebuilds across batches.
  SyntheticConfig config;
  config.seed = 11;
  config.num_records = 900;
  config.num_users = 30;
  config.num_communities = 3;
  config.num_topics = 4;
  config.num_venues = 8;
  config.keywords_per_topic = 12;
  config.background_vocab = 30;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  ASSERT_TRUE(corpus.ok());
  std::vector<std::vector<TokenizedRecord>> batches(3);
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    batches[i * batches.size() / corpus->size()].push_back(
        corpus->record(i));
  }

  ThreadPool pool(kThreads);
  OnlineActorOptions options;
  options.dim = 16;
  options.samples_per_edge_per_batch = 2.0;
  options.num_shards = kThreads;
  options.num_threads = kThreads;
  options.pool = &pool;  // caller-owned persistent pool
  auto model = OnlineActor::Create(options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  for (const auto& batch : batches) {
    ASSERT_TRUE(model->Ingest(batch).ok());
  }
  EXPECT_GT(model->num_live_edges(), 0u);
  EXPECT_TRUE(AllFinite(model->GatherCenter()));
}

TEST(ConcurrencyTsanTest, QueryDuringIngest) {
  // The serving contract (docs/serving.md): query threads acquire the
  // latest published snapshot and run top-k queries while the ingest
  // thread keeps training and publishing. The only shared mutable cell is
  // the SnapshotStore's atomic shared_ptr slot — TSan must see no races,
  // and every query must score against one consistent frozen model.
  SyntheticConfig config;
  config.seed = 29;
  config.num_records = 900;
  config.num_users = 30;
  config.num_communities = 3;
  config.num_topics = 4;
  config.num_venues = 8;
  config.keywords_per_topic = 12;
  config.background_vocab = 30;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  ASSERT_TRUE(corpus.ok());
  std::vector<std::vector<TokenizedRecord>> batches(6);
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    batches[i * batches.size() / corpus->size()].push_back(
        corpus->record(i));
  }

  OnlineActorOptions options;
  options.dim = 16;
  options.samples_per_edge_per_batch = 2.0;
  options.num_shards = kThreads;
  options.num_threads = kThreads;
  auto model = OnlineActor::Create(options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  model->PublishSnapshot();
  const GeoPoint probe = batches[0].front().location;

  ThreadPool pool(kThreads);
  std::atomic<int> query_failures{0};
  std::atomic<int64_t> queries_done{0};
  std::atomic<bool> ingest_done{false};
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&, t] {
      uint64_t spins = 0;
      while (!ingest_done.load(std::memory_order_acquire) ||
             spins < 50) {
        ++spins;
        auto snap = model->CurrentSnapshot();
        if (snap == nullptr) continue;
        QueryEngine engine(std::move(snap));
        auto words = engine.QueryByLocation(probe, VertexType::kWord,
                                            3 + (t % 3));
        auto hours = engine.QueryByHour(9.0 + t, VertexType::kTime, 2);
        if (!words.ok() || !hours.ok()) {
          query_failures.fetch_add(1, std::memory_order_relaxed);
        }
        queries_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Ingest thread: keep training and publishing while queries run.
  for (std::size_t b = 1; b < batches.size(); ++b) {
    ASSERT_TRUE(model->Ingest(batches[b]).ok());
    model->PublishSnapshot();
  }
  ingest_done.store(true, std::memory_order_release);
  pool.Wait();

  EXPECT_EQ(query_failures.load(), 0);
  EXPECT_GT(queries_done.load(), 0);
  EXPECT_TRUE(AllFinite(model->CurrentSnapshot()->center()));
}

TEST(ConcurrencyTsanTest, BatchedQueryDuringIngest) {
  // bench/serve_load's service pattern: each worker acquires the latest
  // snapshot once per request batch and scores the whole mixed-kind batch
  // through QueryEngine::QueryBatch while the ingest thread keeps training
  // and publishing. Same isolation contract as QueryDuringIngest — the
  // batched path adds no shared mutable state beyond the store's atomic
  // slot, and TSan must agree.
  SyntheticConfig config;
  config.seed = 61;
  config.num_records = 900;
  config.num_users = 30;
  config.num_communities = 3;
  config.num_topics = 4;
  config.num_venues = 8;
  config.keywords_per_topic = 12;
  config.background_vocab = 30;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  ASSERT_TRUE(corpus.ok());
  std::vector<std::vector<TokenizedRecord>> batches(6);
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    batches[i * batches.size() / corpus->size()].push_back(
        corpus->record(i));
  }

  OnlineActorOptions options;
  options.dim = 16;
  options.samples_per_edge_per_batch = 2.0;
  options.num_shards = kThreads;
  options.num_threads = kThreads;
  auto model = OnlineActor::Create(options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  model->PublishSnapshot();
  const GeoPoint probe = batches[0].front().location;

  ThreadPool pool(kThreads);
  std::atomic<int> query_failures{0};
  std::atomic<int64_t> batches_served{0};
  std::atomic<bool> ingest_done{false};
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&, t] {
      std::vector<BatchQuery> request;
      request.push_back(
          BatchQuery::Location(probe, VertexType::kWord, 3 + (t % 3)));
      request.push_back(BatchQuery::Hour(9.0 + t, VertexType::kTime, 2));
      request.push_back(
          BatchQuery::Location(probe, VertexType::kLocation, 4));
      request.push_back(BatchQuery::Hour(2.0 * t, VertexType::kWord, 5));
      uint64_t spins = 0;
      while (!ingest_done.load(std::memory_order_acquire) || spins < 50) {
        ++spins;
        auto snap = model->CurrentSnapshot();
        if (snap == nullptr) continue;
        QueryEngine engine(std::move(snap));
        const auto results = engine.QueryBatch(request);
        for (const auto& r : results) {
          if (!r.ok()) {
            query_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        batches_served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t b = 1; b < batches.size(); ++b) {
    ASSERT_TRUE(model->Ingest(batches[b]).ok());
    model->PublishSnapshot();
  }
  ingest_done.store(true, std::memory_order_release);
  pool.Wait();

  EXPECT_EQ(query_failures.load(), 0);
  EXPECT_GT(batches_served.load(), 0);
  EXPECT_TRUE(AllFinite(model->CurrentSnapshot()->center()));
}

TEST(ConcurrencyTsanTest, DeltaPublishQueryDuringIngest) {
  // Delta-publish flavor of QueryDuringIngest: kThreads shard epochs mark
  // their own dirty sets on the pool, and the ingest thread chunk-COW
  // publishes each shard against its previous snapshot, all while query
  // threads keep acquiring and scoring composites. TSan must see no races
  // in the dirty bookkeeping or the chunk sharing, and a composite held
  // from before the writer started must stay byte-frozen throughout.
  SyntheticConfig config;
  config.seed = 43;
  config.num_records = 900;
  config.num_users = 30;
  config.num_communities = 3;
  config.num_topics = 4;
  config.num_venues = 8;
  config.keywords_per_topic = 12;
  config.background_vocab = 30;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  ASSERT_TRUE(corpus.ok());
  std::vector<std::vector<TokenizedRecord>> batches(6);
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    batches[i * batches.size() / corpus->size()].push_back(
        corpus->record(i));
  }

  ThreadPool train_pool(kThreads);
  OnlineActorOptions options;
  options.dim = 16;
  options.samples_per_edge_per_batch = 2.0;
  options.num_shards = kThreads;
  options.num_threads = kThreads;
  options.pool = &train_pool;
  options.delta_publish = true;  // explicit: this is the delta smoke
  auto model = OnlineActor::Create(options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  auto held = model->PublishShardedSnapshot();
  ASSERT_NE(held, nullptr);
  std::vector<float> held_probe;
  for (int s = 0; s < held->num_shards(); ++s) {
    held_probe.push_back(held->shard(s)->center().row(0)[0]);
  }
  const GeoPoint probe = batches[0].front().location;

  ThreadPool query_pool(kThreads);
  std::atomic<int> query_failures{0};
  std::atomic<bool> ingest_done{false};
  for (int t = 0; t < kThreads; ++t) {
    query_pool.Submit([&, t] {
      uint64_t spins = 0;
      uint64_t last_version = 0;
      while (!ingest_done.load(std::memory_order_acquire) || spins < 50) {
        ++spins;
        auto snap = model->CurrentShardedSnapshot();
        if (snap == nullptr) continue;
        if (snap->version() < last_version) {
          query_failures.fetch_add(1, std::memory_order_relaxed);
        }
        last_version = snap->version();
        ShardedQueryEngine engine(std::move(snap));
        auto words = engine.QueryByLocation(probe, VertexType::kWord,
                                            3 + (t % 3));
        if (!words.ok()) {
          query_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::size_t b = 1; b < batches.size(); ++b) {
    ASSERT_TRUE(model->Ingest(batches[b]).ok());
    model->PublishShardedSnapshot();
  }
  ingest_done.store(true, std::memory_order_release);
  query_pool.Wait();

  EXPECT_EQ(query_failures.load(), 0);
  for (int s = 0; s < held->num_shards(); ++s) {  // frozen under deltas
    EXPECT_EQ(held->shard(s)->center().row(0)[0],
              held_probe[static_cast<std::size_t>(s)]);
  }
  auto last = model->CurrentShardedSnapshot();
  ASSERT_NE(last, nullptr);
  EXPECT_GT(last->version(), held->version());
  for (int s = 0; s < last->num_shards(); ++s) {
    EXPECT_TRUE(AllFinite(last->shard(s)->center()));
  }
}

TEST(ConcurrencyTsanTest, ShardedQueryDuringIngest) {
  // The sharded serving contract: the ingest thread trains per-shard
  // epochs on its own pool and publishes composite snapshots through
  // ShardedSnapshotStore's atomic slot, while query workers acquire the
  // composite and scatter-gather across the per-shard engines. The
  // composite swap is a single pointer store, so a worker can never see a
  // torn mix of shard versions — and TSan must see no races between the
  // per-shard trainers (owned rows + private tile copies only) and the
  // readers.
  SyntheticConfig config;
  config.seed = 83;
  config.num_records = 900;
  config.num_users = 30;
  config.num_communities = 3;
  config.num_topics = 4;
  config.num_venues = 8;
  config.keywords_per_topic = 12;
  config.background_vocab = 30;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  ASSERT_TRUE(corpus.ok());
  std::vector<std::vector<TokenizedRecord>> batches(6);
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    batches[i * batches.size() / corpus->size()].push_back(
        corpus->record(i));
  }

  ThreadPool train_pool(kThreads);
  OnlineActorOptions options;
  options.dim = 16;
  options.samples_per_edge_per_batch = 2.0;
  options.num_shards = 2;
  options.num_threads = kThreads;
  options.pool = &train_pool;
  options.delta_publish = true;  // per-shard chunk-COW under concurrency
  auto model = OnlineActor::Create(options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  ASSERT_NE(model->PublishShardedSnapshot(), nullptr);
  const GeoPoint probe = batches[0].front().location;

  ThreadPool query_pool(kThreads);
  std::atomic<int> query_failures{0};
  std::atomic<int64_t> queries_done{0};
  std::atomic<bool> ingest_done{false};
  for (int t = 0; t < kThreads; ++t) {
    query_pool.Submit([&, t] {
      uint64_t spins = 0;
      uint64_t last_version = 0;
      while (!ingest_done.load(std::memory_order_acquire) || spins < 50) {
        ++spins;
        auto snap = model->CurrentShardedSnapshot();
        if (snap == nullptr) continue;
        // Versions move forward only: a stale composite would mean the
        // pointer swap tore or the store lost release ordering.
        if (snap->version() < last_version) {
          query_failures.fetch_add(1, std::memory_order_relaxed);
        }
        last_version = snap->version();
        ShardedQueryEngine engine(std::move(snap));
        auto words = engine.QueryByLocation(probe, VertexType::kWord,
                                            3 + (t % 3));
        auto hours = engine.QueryByHour(9.0 + t, VertexType::kTime, 2);
        if (!words.ok() || !hours.ok()) {
          query_failures.fetch_add(1, std::memory_order_relaxed);
        }
        queries_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t b = 1; b < batches.size(); ++b) {
    ASSERT_TRUE(model->Ingest(batches[b]).ok());
    model->PublishShardedSnapshot();
  }
  ingest_done.store(true, std::memory_order_release);
  query_pool.Wait();

  EXPECT_EQ(query_failures.load(), 0);
  EXPECT_GT(queries_done.load(), 0);
  auto last = model->CurrentShardedSnapshot();
  ASSERT_NE(last, nullptr);
  for (int s = 0; s < last->num_shards(); ++s) {
    EXPECT_TRUE(AllFinite(last->shard(s)->center()));
  }
}

TEST(ConcurrencyTsanTest, TsanBuildInstallsRelaxedBackend) {
#if defined(ACTOR_TSAN)
  EXPECT_EQ(ActiveVecBackend(), VecBackend::kRelaxed);
  EXPECT_EQ(SetVecBackend(VecBackend::kAvx2), VecBackend::kRelaxed);
#else
  // Release/sanitize builds keep the fast dispatch: requesting AVX2 must
  // never silently land on the relaxed scalar path.
  const VecBackend restored = SetVecBackend(VecBackend::kAvx2);
  EXPECT_EQ(restored, Avx2Available() ? VecBackend::kAvx2
                                      : VecBackend::kScalar);
#endif
}

}  // namespace
}  // namespace actor
