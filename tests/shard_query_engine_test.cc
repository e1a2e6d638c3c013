#include "shard/sharded_query_engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/online_actor.h"
#include "data/synthetic.h"
#include "serve/query_engine.h"

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

/// A trained 2-shard actor plus both serving views of the same model
/// state: the flat engine on the gathered snapshot and the scatter-gather
/// engine on the composite.
struct Harness {
  Result<OnlineActor> model;
  std::shared_ptr<const ModelSnapshot> flat_snap;
  std::shared_ptr<const ShardedModelSnapshot> sharded_snap;
};

Harness MakeHarness(int num_shards, int records = 900) {
  OnlineActorOptions opts;
  opts.dim = 16;
  opts.samples_per_edge_per_batch = 2.0;
  opts.num_shards = num_shards;
  Harness h{OnlineActor::Create(opts), nullptr, nullptr};
  EXPECT_TRUE(h.model.ok());
  const auto batches = MakeBatches(records, 3);
  for (const auto& batch : batches) {
    EXPECT_TRUE(h.model->Ingest(batch).ok());
  }
  h.flat_snap = h.model->PublishSnapshot();
  h.sharded_snap = h.model->PublishShardedSnapshot();
  EXPECT_NE(h.flat_snap, nullptr);
  EXPECT_NE(h.sharded_snap, nullptr);
  return h;
}

void ExpectSameNeighbors(const Result<std::vector<Neighbor>>& a,
                         const Result<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.ok(), b.ok()) << a.status().message() << " vs "
                            << b.status().message();
  if (!a.ok()) {
    EXPECT_EQ(a.status().message(), b.status().message());
    return;
  }
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].vertex, (*b)[i].vertex) << "rank " << i;
    EXPECT_EQ((*a)[i].similarity, (*b)[i].similarity) << "rank " << i;
    EXPECT_EQ((*a)[i].name, (*b)[i].name) << "rank " << i;
    EXPECT_EQ((*a)[i].type, (*b)[i].type) << "rank " << i;
  }
}

// The scatter-gather acceptance bar: at shards>1, the same (score, unit)
// list — same order, same similarity bits — as the flat engine on the
// gathered snapshot of the same model state, across query modalities and
// result types.
TEST(ShardedQueryEngineTest, ScatterGatherMatchesFlatEngineAtTwoShards) {
  Harness h = MakeHarness(2);
  QueryEngine flat(h.flat_snap);
  ShardedQueryEngine scatter(h.sharded_snap);
  EXPECT_EQ(h.sharded_snap->num_shards(), 2);

  const GeoPoint somewhere{3.0, 4.0};
  for (const VertexType type :
       {VertexType::kWord, VertexType::kLocation, VertexType::kTime,
        VertexType::kUser}) {
    for (const int k : {1, 5, 16}) {
      ExpectSameNeighbors(flat.QueryByLocation(somewhere, type, k),
                          scatter.QueryByLocation(somewhere, type, k));
      ExpectSameNeighbors(flat.QueryByHour(8.5, type, k),
                          scatter.QueryByHour(8.5, type, k));
    }
  }
  // Raw-vector queries with a global exclude id resolve identically too.
  std::vector<float> q(16, 0.25f);
  ExpectSameNeighbors(
      flat.QueryByVector(q.data(), VertexType::kWord, 9, 3),
      scatter.QueryByVector(q.data(), VertexType::kWord, 9, 3));
}

TEST(ShardedQueryEngineTest, MergeHandlesKLargerThanPerShardUnits) {
  Harness h = MakeHarness(4, 400);
  QueryEngine flat(h.flat_snap);
  ShardedQueryEngine scatter(h.sharded_snap);
  // k beyond the total unit count: every shard returns its whole type
  // block and the merge must still reproduce the flat ranking exactly,
  // without duplicates or truncation artifacts.
  const int huge_k = h.flat_snap->num_units() + 50;
  auto a = flat.QueryByHour(12.0, VertexType::kWord, huge_k);
  auto b = scatter.QueryByHour(12.0, VertexType::kWord, huge_k);
  ExpectSameNeighbors(a, b);
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(b->empty());
  // Sanity: results really span several shards (k covered all units).
  const ShardMapSnapshot& map = h.sharded_snap->map();
  bool multi_shard = false;
  const int first_owner =
      map.owner[static_cast<std::size_t>((*b)[0].vertex)];
  for (const Neighbor& n : *b) {
    if (map.owner[static_cast<std::size_t>(n.vertex)] != first_owner) {
      multi_shard = true;
      break;
    }
  }
  EXPECT_TRUE(multi_shard);
}

TEST(ShardedQueryEngineTest, BatchMatchesSequentialOnShardedEngine) {
  Harness h = MakeHarness(2);
  ShardedQueryEngine scatter(h.sharded_snap);

  std::vector<float> q(16, -0.5f);
  std::vector<BatchQuery> queries;
  queries.push_back(
      BatchQuery::Location({3.0, 4.0}, VertexType::kWord, 5));
  queries.push_back(BatchQuery::Hour(8.5, VertexType::kLocation, 3));
  queries.push_back(BatchQuery::Keyword("coffee", VertexType::kWord, 4));
  queries.push_back(BatchQuery::Vector(q.data(), VertexType::kUser, 6));
  queries.push_back(BatchQuery::Hour(23.9, VertexType::kTime, 0));  // bad k
  queries.push_back(BatchQuery::Vector(q.data(), VertexType::kWord, 2, 1));

  const auto batch = scatter.QueryBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  ExpectSameNeighbors(
      scatter.QueryByLocation({3.0, 4.0}, VertexType::kWord, 5), batch[0]);
  ExpectSameNeighbors(scatter.QueryByHour(8.5, VertexType::kLocation, 3),
                      batch[1]);
  // Keyword on a streaming snapshot: NotFound, same text both paths.
  EXPECT_TRUE(batch[2].status().IsNotFound());
  ExpectSameNeighbors(
      scatter.QueryByKeyword("coffee", VertexType::kWord, 4), batch[2]);
  ExpectSameNeighbors(
      scatter.QueryByVector(q.data(), VertexType::kUser, 6), batch[3]);
  EXPECT_TRUE(batch[4].status().IsInvalidArgument());
  ExpectSameNeighbors(
      scatter.QueryByVector(q.data(), VertexType::kWord, 2, 1), batch[5]);
}

TEST(ShardedQueryEngineTest, BatchMatchesFlatEngineBatch) {
  Harness h = MakeHarness(2);
  QueryEngine flat(h.flat_snap);
  ShardedQueryEngine scatter(h.sharded_snap);

  std::vector<float> q(16, 0.1f);
  std::vector<BatchQuery> queries;
  queries.push_back(BatchQuery::Hour(7.25, VertexType::kWord, 8));
  queries.push_back(
      BatchQuery::Location({-2.0, 1.0}, VertexType::kUser, 4));
  queries.push_back(BatchQuery::Vector(q.data(), VertexType::kTime, 3));
  queries.push_back(BatchQuery::Keyword("tea", VertexType::kWord, 2));

  const auto a = flat.QueryBatch(queries);
  const auto b = scatter.QueryBatch(queries);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ExpectSameNeighbors(a[i], b[i]);
  }
}

TEST(ShardedQueryEngineTest, ErrorsMirrorFlatEngine) {
  Harness h = MakeHarness(2);
  QueryEngine flat(h.flat_snap);
  ShardedQueryEngine scatter(h.sharded_snap);
  std::vector<float> q(16, 0.0f);
  // k validation precedence matches the flat engine's exactly.
  EXPECT_TRUE(scatter.QueryByVector(q.data(), VertexType::kWord, 0)
                  .status()
                  .IsInvalidArgument());
  ExpectSameNeighbors(flat.QueryByVector(q.data(), VertexType::kWord, -1),
                      scatter.QueryByVector(q.data(), VertexType::kWord, -1));
  ExpectSameNeighbors(flat.QueryByKeyword("x", VertexType::kWord, 5),
                      scatter.QueryByKeyword("x", VertexType::kWord, 5));
}

// A NaN/infinite location or hour is rejected at the one resolve step, by
// both engines on both paths, instead of surfacing as a misleading
// NotFound ("no spatial hotspots available") from a scan that matched
// nothing. Resolution errors keep their precedence over the k check.
TEST(ShardedQueryEngineTest, NonFiniteLocationOrHourIsInvalidArgument) {
  Harness h = MakeHarness(2);
  QueryEngine flat(h.flat_snap);
  ShardedQueryEngine scatter(h.sharded_snap);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<BatchQuery> queries;
  for (const GeoPoint& p : {GeoPoint{nan, 1.0}, GeoPoint{1.0, nan},
                            GeoPoint{inf, 1.0}, GeoPoint{1.0, -inf}}) {
    queries.push_back(BatchQuery::Location(p, VertexType::kWord, 5));
  }
  for (const double hour : {nan, inf, -inf}) {
    queries.push_back(BatchQuery::Hour(hour, VertexType::kLocation, 0));
  }
  const auto flat_batch = flat.QueryBatch(queries);
  const auto scatter_batch = scatter.QueryBatch(queries);
  ASSERT_EQ(flat_batch.size(), queries.size());
  ASSERT_EQ(scatter_batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const BatchQuery& q = queries[i];
    const bool at_location = q.kind == BatchQuery::Kind::kLocation;
    const auto flat_seq =
        at_location ? flat.QueryByLocation(q.location, q.result_type, q.k)
                    : flat.QueryByHour(q.hour, q.result_type, q.k);
    const auto scatter_seq =
        at_location ? scatter.QueryByLocation(q.location, q.result_type, q.k)
                    : scatter.QueryByHour(q.hour, q.result_type, q.k);
    for (const auto* r : {&flat_seq, &scatter_seq, &flat_batch[i],
                          &scatter_batch[i]}) {
      EXPECT_TRUE(r->status().IsInvalidArgument())
          << "request " << i << ": " << r->status().ToString();
      EXPECT_NE(r->status().message().find("must be finite"),
                std::string::npos)
          << "request " << i << ": " << r->status().ToString();
    }
  }
}

}  // namespace
}  // namespace actor
