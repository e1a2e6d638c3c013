#include "core/model_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "eval/pipeline.h"

namespace actor {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions pipeline = UTGeoPipeline(0.05);
    pipeline.synthetic.num_records = 1200;
    auto prepared = PrepareDataset(pipeline, "model-io");
    ASSERT_TRUE(prepared.ok());
    data_ = new PreparedDataset(prepared.MoveValueOrDie());
    ActorOptions options;
    options.dim = 16;
    options.epochs = 3;
    options.samples_per_edge = 4;
    auto model = TrainActor(*data_->graphs, options);
    ASSERT_TRUE(model.ok());
    model_ = new ActorModel(model.MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    model_ = nullptr;
    data_ = nullptr;
  }

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/actor_model_io";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  static PreparedDataset* data_;
  static ActorModel* model_;
};

PreparedDataset* ModelIoTest::data_ = nullptr;
ActorModel* ModelIoTest::model_ = nullptr;

TEST_F(ModelIoTest, SaveCreatesFiles) {
  ASSERT_TRUE(SaveActorModel(*model_, *data_->graphs, dir_).ok());
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/center.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/context.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/vertices.tsv"));
}

TEST_F(ModelIoTest, RoundTripPreservesEverything) {
  ASSERT_TRUE(SaveActorModel(*model_, *data_->graphs, dir_).ok());
  auto loaded = LoadedModel::Load(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_vertices(), model_->center.rows());
  ASSERT_EQ(loaded->center().dim(), model_->center.dim());
  for (VertexId v = 0; v < loaded->num_vertices(); ++v) {
    EXPECT_EQ(loaded->vertex_type(v), data_->graphs->activity.vertex_type(v));
    EXPECT_EQ(loaded->vertex_name(v), data_->graphs->activity.vertex_name(v));
    for (int d = 0; d < loaded->center().dim(); ++d) {
      ASSERT_NEAR(loaded->center().row(v)[d], model_->center.row(v)[d],
                  1e-6f);
    }
  }
}

TEST_F(ModelIoTest, LookupByName) {
  ASSERT_TRUE(SaveActorModel(*model_, *data_->graphs, dir_).ok());
  auto loaded = LoadedModel::Load(dir_);
  ASSERT_TRUE(loaded.ok());
  // Every word in the vocabulary resolves to its graph vertex.
  const std::string word = data_->full.vocab().word(0);
  const VertexId expected =
      data_->graphs->word_vertices[data_->full.vocab().Lookup(word)];
  EXPECT_EQ(loaded->Lookup(word), expected);
  EXPECT_EQ(loaded->Lookup("no_such_unit_name_xyz"), kInvalidVertex);
}

TEST_F(ModelIoTest, NearestOfTypeAfterReload) {
  ASSERT_TRUE(SaveActorModel(*model_, *data_->graphs, dir_).ok());
  auto loaded = LoadedModel::Load(dir_);
  ASSERT_TRUE(loaded.ok());
  const VertexId w = loaded->Lookup(data_->full.vocab().word(0));
  ASSERT_NE(w, kInvalidVertex);
  auto nearest = loaded->NearestOfType(w, VertexType::kWord, 5);
  ASSERT_EQ(nearest.size(), 5u);
  for (const auto& [v, sim] : nearest) {
    EXPECT_EQ(loaded->vertex_type(v), VertexType::kWord);
    EXPECT_NE(v, w);
    EXPECT_GE(sim, -1.0 - 1e-6);
    EXPECT_LE(sim, 1.0 + 1e-6);
  }
  // Sorted descending.
  for (std::size_t i = 1; i < nearest.size(); ++i) {
    EXPECT_GE(nearest[i - 1].second, nearest[i].second);
  }

  // Tied scores come back in ascending id order. Give four other words
  // the query's own vector, written highest id first, so they tie at the
  // top with bit-identical cosines.
  std::vector<VertexId> tied;
  for (VertexId v = 0; v < loaded->num_vertices() && tied.size() < 4; ++v) {
    if (v != w && loaded->vertex_type(v) == VertexType::kWord) {
      tied.push_back(v);
    }
  }
  ASSERT_EQ(tied.size(), 4u);
  ActorModel ties;
  ties.center = model_->center.Clone();
  ties.context = model_->context.Clone();
  for (auto it = tied.rbegin(); it != tied.rend(); ++it) {
    ties.center.SetRow(*it, model_->center.row(w));
  }
  ASSERT_TRUE(SaveActorModel(ties, *data_->graphs, dir_).ok());
  auto reloaded = LoadedModel::Load(dir_);
  ASSERT_TRUE(reloaded.ok());
  auto top = reloaded->NearestOfType(w, VertexType::kWord, 4);
  ASSERT_EQ(top.size(), 4u);
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].first, tied[i]) << "rank " << i;
    EXPECT_EQ(top[i].second, top[0].second);
  }
  EXPECT_TRUE(reloaded->NearestOfType(w, VertexType::kWord, 0).empty());
}

TEST_F(ModelIoTest, LoadRejectsGarbledOrTruncatedVertices) {
  ASSERT_TRUE(SaveActorModel(*model_, *data_->graphs, dir_).ok());
  const std::string path = dir_ + "/vertices.tsv";
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 3u);
  // Replaces the id field of row `i`.
  auto with_id = [&lines](std::size_t i, const std::string& id) {
    std::vector<std::string> out = lines;
    out[i] = id + out[i].substr(out[i].find('\t'));
    return out;
  };
  auto load_with = [&](const std::vector<std::string>& rows) {
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& row : rows) out << row << '\n';
    out.close();
    return LoadedModel::Load(dir_).status();
  };

  // Garbled ids: trailing junk, no digits, empty, overflowing int32.
  EXPECT_TRUE(load_with(with_id(0, "0abc")).IsInvalidArgument());
  EXPECT_TRUE(load_with(with_id(0, "abc")).IsInvalidArgument());
  EXPECT_TRUE(load_with(with_id(0, "")).IsInvalidArgument());
  EXPECT_TRUE(load_with(with_id(0, "99999999999")).IsInvalidArgument());
  // A well-formed id outside the matrix.
  EXPECT_EQ(load_with(with_id(0, "999999")).code(), StatusCode::kOutOfRange);
  // A duplicated id keeps the row count right but loses another row.
  EXPECT_TRUE(load_with(with_id(1, "0")).IsInvalidArgument());
  // Truncated: a missing last row, and a last row cut mid-line.
  std::vector<std::string> short_rows(lines.begin(), lines.end() - 1);
  EXPECT_TRUE(load_with(short_rows).IsInvalidArgument());
  std::vector<std::string> cut = lines;
  cut.back() = cut.back().substr(0, cut.back().find('\t') + 1);
  EXPECT_TRUE(load_with(cut).IsInvalidArgument());

  // The untouched file still loads.
  EXPECT_TRUE(load_with(lines).ok());
}

TEST_F(ModelIoTest, LoadMissingDirectoryFails) {
  EXPECT_FALSE(LoadedModel::Load("/no/such/dir").ok());
}

TEST_F(ModelIoTest, MismatchedModelRejected) {
  ActorModel wrong;
  wrong.center = EmbeddingMatrix(3, 4);
  wrong.context = EmbeddingMatrix(3, 4);
  EXPECT_TRUE(SaveActorModel(wrong, *data_->graphs, dir_)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace actor
