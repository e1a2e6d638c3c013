#include "core/actor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "eval/pipeline.h"
#include "test_digest.h"
#include "util/vec_math.h"

namespace actor {
namespace {

/// Small prepared dataset shared across the suite (built once; ACTOR
/// training is the expensive part of each test).
class ActorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions pipeline = UTGeoPipeline(0.1);
    pipeline.synthetic.num_records = 2500;
    pipeline.synthetic.seed = 321;
    auto prepared = PrepareDataset(pipeline, "actor-test");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    data_ = new PreparedDataset(prepared.MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static ActorOptions FastOptions() {
    ActorOptions o;
    o.dim = 16;
    o.epochs = 4;
    o.samples_per_edge = 4;
    o.seed = 5;
    return o;
  }

  static PreparedDataset* data_;
};

PreparedDataset* ActorTest::data_ = nullptr;

TEST_F(ActorTest, TrainsAndShapesMatch) {
  auto model = TrainActor(*data_->graphs, FastOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model->center.rows(), data_->graphs->activity.num_vertices());
  EXPECT_EQ(model->center.dim(), 16);
  EXPECT_EQ(model->context.rows(), model->center.rows());
  EXPECT_GT(model->stats.edge_steps, 0);
  EXPECT_GT(model->stats.record_steps, 0);
  EXPECT_GT(model->stats.train_seconds, 0.0);
}

TEST_F(ActorTest, EmbeddingsFinite) {
  auto model = TrainActor(*data_->graphs, FastOptions());
  ASSERT_TRUE(model.ok());
  for (int r = 0; r < model->center.rows(); ++r) {
    for (int d = 0; d < model->center.dim(); ++d) {
      ASSERT_TRUE(std::isfinite(model->center.row(r)[d]));
      ASSERT_TRUE(std::isfinite(model->context.row(r)[d]));
    }
  }
}

TEST_F(ActorTest, DeterministicSingleThread) {
  auto a = TrainActor(*data_->graphs, FastOptions());
  auto b = TrainActor(*data_->graphs, FastOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  for (int r = 0; r < a->center.rows(); ++r) {
    for (int d = 0; d < a->center.dim(); ++d) {
      ASSERT_FLOAT_EQ(a->center.row(r)[d], b->center.row(r)[d]);
    }
  }
}

// Pins the trained values of the single-threaded offline pipeline: LINE
// pre-training of the user graph, the edge-sampling trainer and, with the
// bag of words, the record loop. The digest covers center then context
// rows, so any change to the trainers' arithmetic, sampling order or
// seeding fails here. Each kernel backend has its own digest; the relaxed
// kernels compute exactly what the scalar ones do. FP contraction
// (-march=native on an FMA host) changes the bits, so such builds are not
// covered.
TEST_F(ActorTest, SingleThreadMatchesRecordedDigests) {
#if defined(__FMA__)
  GTEST_SKIP() << "digests are recorded without FP contraction";
#endif
  struct Golden {
    VecBackend backend;
    uint64_t bag_of_words;  // use_bag_of_words = true (default)
    uint64_t plain;         // use_bag_of_words = false
  };
  const Golden goldens[] = {
      {VecBackend::kScalar, 0x5f3e0dbad9bc70d6ull, 0x205cf41943239829ull},
      {VecBackend::kRelaxed, 0x5f3e0dbad9bc70d6ull, 0x205cf41943239829ull},
      {VecBackend::kAvx2, 0x5aa3d4edc2d92e03ull, 0x5dc532a31d38dc33ull},
  };
  auto digest = [](bool bag_of_words) -> uint64_t {
    ActorOptions o = FastOptions();
    o.use_bag_of_words = bag_of_words;
    auto model = TrainActor(*data_->graphs, o);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    if (!model.ok()) return 0;
    Fnv1a h;
    h.Rows(model->center);
    h.Rows(model->context);
    return h.h;
  };
  const VecBackend original = ActiveVecBackend();
  int checked = 0;
  for (const Golden& golden : goldens) {
    // A backend the host or build cannot install (AVX2 absent; TSan
    // builds install only the relaxed kernels) is skipped.
    if (SetVecBackend(golden.backend) != golden.backend) continue;
    const uint64_t bow = digest(true);
    const uint64_t plain = digest(false);
    EXPECT_EQ(bow, golden.bag_of_words)
        << VecBackendName(golden.backend) << " bag-of-words digest 0x"
        << std::hex << bow;
    EXPECT_EQ(plain, golden.plain)
        << VecBackendName(golden.backend) << " plain digest 0x" << std::hex
        << plain;
    ++checked;
  }
  SetVecBackend(original);
  EXPECT_GT(checked, 0);
}

TEST_F(ActorTest, SeedChangesResult) {
  ActorOptions o1 = FastOptions();
  ActorOptions o2 = FastOptions();
  o2.seed = 6;
  auto a = TrainActor(*data_->graphs, o1);
  auto b = TrainActor(*data_->graphs, o2);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_diff = false;
  for (int r = 0; r < a->center.rows() && !any_diff; ++r) {
    for (int d = 0; d < a->center.dim(); ++d) {
      if (a->center.row(r)[d] != b->center.row(r)[d]) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(ActorTest, AblationWithoutInterSkipsPretraining) {
  ActorOptions o = FastOptions();
  o.use_inter = false;
  auto model = TrainActor(*data_->graphs, o);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->stats.pretrain_seconds, 0.0);
}

TEST_F(ActorTest, AblationWithoutIntraUsesPlainEdges) {
  ActorOptions o = FastOptions();
  o.use_bag_of_words = false;
  auto model = TrainActor(*data_->graphs, o);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->stats.record_steps, 0);
  EXPECT_GT(model->stats.edge_steps, 0);
}

TEST_F(ActorTest, InterTrainingAddsEdgeSteps) {
  ActorOptions with = FastOptions();
  ActorOptions without = FastOptions();
  without.use_inter = false;
  auto a = TrainActor(*data_->graphs, with);
  auto b = TrainActor(*data_->graphs, without);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(a->stats.edge_steps, b->stats.edge_steps);
}

TEST_F(ActorTest, MultiThreadedTrainingRuns) {
  ActorOptions o = FastOptions();
  o.num_threads = 3;
  auto model = TrainActor(*data_->graphs, o);
  ASSERT_TRUE(model.ok());
  for (int r = 0; r < model->center.rows(); ++r) {
    for (int d = 0; d < model->center.dim(); ++d) {
      ASSERT_TRUE(std::isfinite(model->center.row(r)[d]));
    }
  }
}

TEST_F(ActorTest, UserInitSeedsUnitVectors) {
  // With init enabled, units that share their strongest user should start
  // near that user's vector; after a very short run the geometry still
  // reflects it. Compare against a no-init run: the init run must differ.
  ActorOptions with_init = FastOptions();
  with_init.epochs = 1;
  with_init.samples_per_edge = 1;
  ActorOptions no_init = with_init;
  no_init.init_from_users = false;
  auto a = TrainActor(*data_->graphs, with_init);
  auto b = TrainActor(*data_->graphs, no_init);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_diff = false;
  for (int r = 0; r < a->center.rows() && !any_diff; ++r) {
    for (int d = 0; d < a->center.dim(); ++d) {
      if (a->center.row(r)[d] != b->center.row(r)[d]) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(ActorTest, CooccurringUnitsMoreSimilarThanRandom) {
  auto model = TrainActor(*data_->graphs, FastOptions());
  ASSERT_TRUE(model.ok());
  const auto& g = data_->graphs->activity;
  // Average cosine over LW edges vs over random L-W pairs.
  const auto& lw = g.edges(EdgeType::kLW);
  ASSERT_GT(lw.size(), 0u);
  double edge_sim = 0.0;
  std::size_t n_edges = std::min<std::size_t>(lw.size(), 2000);
  for (std::size_t i = 0; i < n_edges; ++i) {
    edge_sim += Cosine(model->center.row(lw.src[i]),
                       model->center.row(lw.dst[i]), 16);
  }
  edge_sim /= static_cast<double>(n_edges);

  Rng rng(3);
  const auto& locations = g.VerticesOfType(VertexType::kLocation);
  const auto& words = g.VerticesOfType(VertexType::kWord);
  double random_sim = 0.0;
  const int n_random = 2000;
  for (int i = 0; i < n_random; ++i) {
    const VertexId l = locations[rng.Uniform(locations.size())];
    const VertexId w = words[rng.Uniform(words.size())];
    random_sim += Cosine(model->center.row(l), model->center.row(w), 16);
  }
  random_sim /= n_random;
  EXPECT_GT(edge_sim, random_sim + 0.05);
}

TEST(ActorValidationTest, RejectsBadOptions) {
  PipelineOptions pipeline = UTGeoPipeline(0.05);
  pipeline.synthetic.num_records = 600;
  auto data = PrepareDataset(pipeline, "tiny");
  ASSERT_TRUE(data.ok());
  ActorOptions o;
  o.dim = 0;
  EXPECT_TRUE(TrainActor(*data->graphs, o).status().IsInvalidArgument());
  o = ActorOptions();
  o.negatives = 0;
  EXPECT_TRUE(TrainActor(*data->graphs, o).status().IsInvalidArgument());
  o = ActorOptions();
  o.initial_lr = 0.0f;
  EXPECT_TRUE(TrainActor(*data->graphs, o).status().IsInvalidArgument());
  o = ActorOptions();
  o.epochs = 0;
  EXPECT_TRUE(TrainActor(*data->graphs, o).status().IsInvalidArgument());
}

TEST(ActorValidationTest, RejectsUnfinalizedGraphs) {
  BuiltGraphs graphs;
  EXPECT_TRUE(
      TrainActor(graphs, ActorOptions()).status().IsFailedPrecondition());
}

}  // namespace
}  // namespace actor
