#include "embedding/skipgram.h"

#include <gtest/gtest.h>

#include <cmath>

#include "test_digest.h"
#include "util/vec_math.h"

namespace actor {
namespace {

Heterograph PathGraph() {
  Heterograph g;
  for (int i = 0; i < 6; ++i) {
    g.AddVertex(VertexType::kWord, "w" + std::to_string(i));
  }
  for (int i = 0; i + 1 < 6; ++i) {
    EXPECT_TRUE(g.AccumulateEdge(i, i + 1).ok());
  }
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

/// Walks that alternate within {0,1,2} or within {3,4,5}.
std::vector<std::vector<VertexId>> ClusteredWalks(int n) {
  std::vector<std::vector<VertexId>> walks;
  for (int i = 0; i < n; ++i) {
    walks.push_back({0, 1, 2, 1, 0, 2});
    walks.push_back({3, 4, 5, 4, 3, 5});
  }
  return walks;
}

SkipGramOptions FastOptions() {
  SkipGramOptions o;
  o.dim = 16;
  o.window = 2;
  o.negatives = 3;
  o.epochs = 20;
  o.seed = 3;
  return o;
}

TEST(SkipGramTest, RequiresFinalizedGraph) {
  Heterograph g;
  EXPECT_TRUE(TrainSkipGramOnWalks(g, ClusteredWalks(1), FastOptions())
                  .status()
                  .IsFailedPrecondition());
}

TEST(SkipGramTest, RejectsEmptyWalks) {
  Heterograph g = PathGraph();
  EXPECT_TRUE(TrainSkipGramOnWalks(g, {}, FastOptions())
                  .status()
                  .IsInvalidArgument());
}

TEST(SkipGramTest, RejectsBadOptions) {
  Heterograph g = PathGraph();
  SkipGramOptions o = FastOptions();
  o.window = 0;
  EXPECT_TRUE(TrainSkipGramOnWalks(g, ClusteredWalks(1), o)
                  .status()
                  .IsInvalidArgument());
  o = FastOptions();
  o.epochs = 0;
  EXPECT_TRUE(TrainSkipGramOnWalks(g, ClusteredWalks(1), o)
                  .status()
                  .IsInvalidArgument());
}

TEST(SkipGramTest, OutputShapes) {
  Heterograph g = PathGraph();
  auto result = TrainSkipGramOnWalks(g, ClusteredWalks(10), FastOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->center.rows(), 6);
  EXPECT_EQ(result->center.dim(), 16);
}

TEST(SkipGramTest, CoWalkedVerticesCluster) {
  Heterograph g = PathGraph();
  auto result = TrainSkipGramOnWalks(g, ClusteredWalks(60), FastOptions());
  ASSERT_TRUE(result.ok());
  const double same =
      Cosine(result->center.row(0), result->center.row(1), 16);
  const double cross =
      Cosine(result->center.row(0), result->center.row(4), 16);
  EXPECT_GT(same, cross + 0.2);
}

TEST(SkipGramTest, PooledNegativesAlsoWork) {
  Heterograph g = PathGraph();
  SkipGramOptions o = FastOptions();
  o.typed_negatives = false;
  auto result = TrainSkipGramOnWalks(g, ClusteredWalks(60), o);
  ASSERT_TRUE(result.ok());
  const double same =
      Cosine(result->center.row(3), result->center.row(4), 16);
  const double cross =
      Cosine(result->center.row(3), result->center.row(1), 16);
  EXPECT_GT(same, cross);
}

TEST(SkipGramTest, EmbeddingsFinite) {
  Heterograph g = PathGraph();
  auto result = TrainSkipGramOnWalks(g, ClusteredWalks(20), FastOptions());
  ASSERT_TRUE(result.ok());
  for (int r = 0; r < 6; ++r) {
    for (int d = 0; d < 16; ++d) {
      EXPECT_TRUE(std::isfinite(result->center.row(r)[d]));
    }
  }
}

TEST(SkipGramTest, DeterministicForSeed) {
  Heterograph g = PathGraph();
  auto a = TrainSkipGramOnWalks(g, ClusteredWalks(5), FastOptions());
  auto b = TrainSkipGramOnWalks(g, ClusteredWalks(5), FastOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  for (int r = 0; r < 6; ++r) {
    for (int d = 0; d < 16; ++d) {
      EXPECT_FLOAT_EQ(a->center.row(r)[d], b->center.row(r)[d]);
    }
  }
}

// Pins the trained values of single-threaded skip-gram (center then
// context rows), one digest per kernel backend; FMA builds are not
// covered (see ActorTest.SingleThreadMatchesRecordedDigests).
TEST(SkipGramTest, SingleThreadMatchesRecordedDigests) {
#if defined(__FMA__)
  GTEST_SKIP() << "digests are recorded without FP contraction";
#endif
  struct Golden {
    VecBackend backend;
    uint64_t digest;
  };
  const Golden goldens[] = {
      {VecBackend::kScalar, 0x1e9acc5caafb3430ull},
      {VecBackend::kRelaxed, 0x1e9acc5caafb3430ull},
      {VecBackend::kAvx2, 0x2dc15ac558e6dc90ull},
  };
  Heterograph g = PathGraph();
  const VecBackend original = ActiveVecBackend();
  int checked = 0;
  for (const Golden& golden : goldens) {
    if (SetVecBackend(golden.backend) != golden.backend) continue;
    auto result = TrainSkipGramOnWalks(g, ClusteredWalks(20), FastOptions());
    ASSERT_TRUE(result.ok());
    Fnv1a h;
    h.Rows(result->center);
    h.Rows(result->context);
    EXPECT_EQ(h.h, golden.digest)
        << VecBackendName(golden.backend) << " digest 0x" << std::hex << h.h;
    ++checked;
  }
  SetVecBackend(original);
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace actor
