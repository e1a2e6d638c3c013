#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/synthetic.h"
#include "graph/graph_builder.h"
#include "hotspot/hotspot_detector.h"

namespace actor {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = ::testing::TempDir() + "/graph_io.tsv"; }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

Heterograph SmallGraph() {
  Heterograph g;
  const VertexId t = g.AddVertex(VertexType::kTime, "T0");
  const VertexId l = g.AddVertex(VertexType::kLocation, "L0");
  const VertexId w = g.AddVertex(VertexType::kWord, "coffee with spaces");
  EXPECT_TRUE(g.AccumulateEdge(t, l, 2.5).ok());
  EXPECT_TRUE(g.AccumulateEdge(l, w, 1.0).ok());
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

TEST_F(GraphIoTest, RoundTripPreservesStructure) {
  Heterograph g = SmallGraph();
  ASSERT_TRUE(SaveHeterograph(g, path_).ok());
  auto loaded = LoadHeterograph(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_vertices(), 3);
  EXPECT_EQ(loaded->vertex_type(0), VertexType::kTime);
  EXPECT_EQ(loaded->vertex_name(2), "coffee with spaces");
  EXPECT_DOUBLE_EQ(loaded->EdgeWeight(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(loaded->EdgeWeight(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(loaded->EdgeWeight(0, 2), 0.0);
  EXPECT_EQ(loaded->num_directed_edges(), g.num_directed_edges());
}

TEST_F(GraphIoTest, RoundTripOnBuiltActivityGraph) {
  SyntheticConfig config;
  config.num_records = 500;
  config.num_users = 40;
  config.num_venues = 8;
  config.num_topics = 4;
  config.num_communities = 3;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  auto corpus = TokenizedCorpus::Build(ds->corpus);
  ASSERT_TRUE(corpus.ok());
  auto hotspots = DetectHotspots(*corpus);
  ASSERT_TRUE(hotspots.ok());
  auto graphs = BuildGraphs(*corpus, *hotspots);
  ASSERT_TRUE(graphs.ok());

  ASSERT_TRUE(SaveHeterograph(graphs->activity, path_).ok());
  auto loaded = LoadHeterograph(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_vertices(), graphs->activity.num_vertices());
  EXPECT_EQ(loaded->num_directed_edges(),
            graphs->activity.num_directed_edges());
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    const EdgeType et = static_cast<EdgeType>(e);
    EXPECT_EQ(loaded->edges(et).size(), graphs->activity.edges(et).size())
        << EdgeTypeName(et);
    for (VertexId v = 0; v < loaded->num_vertices(); ++v) {
      ASSERT_DOUBLE_EQ(loaded->Degree(et, v), graphs->activity.Degree(et, v));
    }
  }
}

TEST_F(GraphIoTest, UnfinalizedGraphRejected) {
  Heterograph g;
  EXPECT_TRUE(SaveHeterograph(g, path_).IsFailedPrecondition());
}

TEST_F(GraphIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadHeterograph("/no/such/graph.tsv").status().IsIOError());
}

TEST_F(GraphIoTest, MalformedRowsRejected) {
  std::ofstream out(path_);
  out << "X\t0\tT\tname\n";
  out.close();
  EXPECT_TRUE(LoadHeterograph(path_).status().IsInvalidArgument());
}

TEST_F(GraphIoTest, OutOfOrderVerticesRejected) {
  std::ofstream out(path_);
  out << "V\t1\tT\tname\n";
  out.close();
  EXPECT_TRUE(LoadHeterograph(path_).status().IsInvalidArgument());
}

TEST_F(GraphIoTest, UnknownTypeRejected) {
  std::ofstream out(path_);
  out << "V\t0\tZ\tname\n";
  out.close();
  EXPECT_TRUE(LoadHeterograph(path_).status().IsInvalidArgument());
}

TEST_F(GraphIoTest, BadEdgeEndpointRejected) {
  std::ofstream out(path_);
  out << "V\t0\tT\ta\nV\t1\tL\tb\nE\t0\t9\t1.0\n";
  out.close();
  EXPECT_TRUE(LoadHeterograph(path_).status().IsInvalidArgument());
}

TEST_F(GraphIoTest, VertexIdsMustBeWholeIntegers) {
  // strtol-style prefix parsing would read "1x" as 1 and "x" as 0.
  const char* const rows[] = {
      "V\tx\tT\ta\n",
      "V\t0x\tT\ta\n",
      "V\t\tT\ta\n",
      "V\t0\tT\ta\nV\t1\tL\tb\nE\t0\t1x\t1.0\n",
      "V\t0\tT\ta\nV\t1\tL\tb\nE\tx\t1\t1.0\n",
      "V\t0\tT\ta\nV\t1\tL\tb\nE\t0\t4294967297\t1.0\n",
  };
  for (const char* row : rows) {
    SCOPED_TRACE(row);
    {
      std::ofstream out(path_);
      out << row;
    }
    const Status status = LoadHeterograph(path_).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  }
}

TEST_F(GraphIoTest, EdgeWeightsMustBeWholeFiniteNumbers) {
  for (const char* weight : {"1.0abc", "", "x", "nan", "inf", "-inf"}) {
    SCOPED_TRACE(weight);
    {
      std::ofstream out(path_);
      out << "V\t0\tT\ta\nV\t1\tL\tb\nE\t0\t1\t" << weight << "\n";
    }
    const Status status = LoadHeterograph(path_).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  }
}

}  // namespace
}  // namespace actor
