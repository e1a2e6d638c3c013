#include "graph/heterograph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace actor {
namespace {

/// T0, L0, W0, W1, U0 with a few edges.
Heterograph SmallGraph() {
  Heterograph g;
  const VertexId t = g.AddVertex(VertexType::kTime, "T0");
  const VertexId l = g.AddVertex(VertexType::kLocation, "L0");
  const VertexId w0 = g.AddVertex(VertexType::kWord, "w0");
  const VertexId w1 = g.AddVertex(VertexType::kWord, "w1");
  const VertexId u = g.AddVertex(VertexType::kUser, "u0");
  EXPECT_TRUE(g.AccumulateEdge(t, l, 2.0).ok());
  EXPECT_TRUE(g.AccumulateEdge(l, w0).ok());
  EXPECT_TRUE(g.AccumulateEdge(l, w0).ok());  // accumulates to 2
  EXPECT_TRUE(g.AccumulateEdge(w0, w1, 3.0).ok());
  EXPECT_TRUE(g.AccumulateEdge(u, t, 1.5).ok());
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

TEST(HeterographTest, AddVertexAssignsDenseIds) {
  Heterograph g;
  EXPECT_EQ(g.AddVertex(VertexType::kTime, "a"), 0);
  EXPECT_EQ(g.AddVertex(VertexType::kWord, "b"), 1);
  EXPECT_EQ(g.num_vertices(), 2);
  EXPECT_EQ(g.vertex_type(0), VertexType::kTime);
  EXPECT_EQ(g.vertex_name(1), "b");
}

TEST(HeterographTest, VerticesOfType) {
  Heterograph g = SmallGraph();
  EXPECT_EQ(g.VerticesOfType(VertexType::kWord).size(), 2u);
  EXPECT_EQ(g.VerticesOfType(VertexType::kTime).size(), 1u);
  EXPECT_EQ(g.VerticesOfType(VertexType::kUser).size(), 1u);
}

TEST(HeterographTest, EdgeWeightsAccumulate) {
  Heterograph g = SmallGraph();
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 2), 2.0);  // L0-w0 accumulated twice
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 1), 2.0);  // symmetric
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 2.0);  // T0-L0 weight 2
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 3), 3.0);  // w0-w1
}

TEST(HeterographTest, MissingEdgeWeightZero) {
  Heterograph g = SmallGraph();
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2), 0.0);  // T0-w0 absent
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 0), 0.0);  // self
}

TEST(HeterographTest, DirectedEdgesBothOrientations) {
  Heterograph g = SmallGraph();
  const auto& tl = g.edges(EdgeType::kTL);
  ASSERT_EQ(tl.size(), 2u);  // one undirected edge -> two directed
  // Both orientations present.
  const bool has_forward =
      (tl.src[0] == 0 && tl.dst[0] == 1) || (tl.src[1] == 0 && tl.dst[1] == 1);
  const bool has_backward =
      (tl.src[0] == 1 && tl.dst[0] == 0) || (tl.src[1] == 1 && tl.dst[1] == 0);
  EXPECT_TRUE(has_forward);
  EXPECT_TRUE(has_backward);
  EXPECT_DOUBLE_EQ(tl.weight[0], 2.0);
}

TEST(HeterographTest, EdgesRoutedToCorrectType) {
  Heterograph g = SmallGraph();
  EXPECT_EQ(g.edges(EdgeType::kLW).size(), 2u);
  EXPECT_EQ(g.edges(EdgeType::kWW).size(), 2u);
  EXPECT_EQ(g.edges(EdgeType::kUT).size(), 2u);
  EXPECT_EQ(g.edges(EdgeType::kWT).size(), 0u);
  EXPECT_EQ(g.edges(EdgeType::kUU).size(), 0u);
}

TEST(HeterographTest, NeighborsAndWeights) {
  Heterograph g = SmallGraph();
  const auto neighbors = g.Neighbors(EdgeType::kLW, 1);
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0], 2);
  const auto weights = g.NeighborWeights(EdgeType::kLW, 1);
  ASSERT_EQ(weights.size(), 1u);
  EXPECT_DOUBLE_EQ(weights[0], 2.0);
  // w0's LW neighbors: L0.
  EXPECT_EQ(g.Neighbors(EdgeType::kLW, 2).size(), 1u);
  // T0 has no LW neighbors.
  EXPECT_TRUE(g.Neighbors(EdgeType::kLW, 0).empty());
}

TEST(HeterographTest, DegreeSumsWeights) {
  Heterograph g = SmallGraph();
  EXPECT_DOUBLE_EQ(g.Degree(EdgeType::kTL, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.Degree(EdgeType::kLW, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.Degree(EdgeType::kWW, 2), 3.0);
  EXPECT_DOUBLE_EQ(g.Degree(EdgeType::kUT, 0), 1.5);  // T side of UT
  EXPECT_DOUBLE_EQ(g.Degree(EdgeType::kWW, 0), 0.0);
}

TEST(HeterographTest, NumDirectedEdges) {
  Heterograph g = SmallGraph();
  // 4 undirected edges (TL, LW, WW, UT) -> 8 directed.
  EXPECT_EQ(g.num_directed_edges(), 8);
}

TEST(HeterographTest, SelfLoopRejected) {
  Heterograph g;
  const VertexId w = g.AddVertex(VertexType::kWord, "w");
  EXPECT_TRUE(g.AccumulateEdge(w, w).IsInvalidArgument());
}

TEST(HeterographTest, OutOfRangeVertexRejected) {
  Heterograph g;
  g.AddVertex(VertexType::kWord, "w");
  EXPECT_TRUE(g.AccumulateEdge(0, 5).IsInvalidArgument());
  EXPECT_TRUE(g.AccumulateEdge(-1, 0).IsInvalidArgument());
}

TEST(HeterographTest, NonPositiveOrNonFiniteWeightRejected) {
  Heterograph g;
  g.AddVertex(VertexType::kWord, "a");
  g.AddVertex(VertexType::kWord, "b");
  EXPECT_TRUE(g.AccumulateEdge(0, 1, 0.0).IsInvalidArgument());
  EXPECT_TRUE(g.AccumulateEdge(0, 1, -1.0).IsInvalidArgument());
  EXPECT_TRUE(g.AccumulateEdge(0, 1, std::numeric_limits<double>::quiet_NaN())
                  .IsInvalidArgument());
  EXPECT_TRUE(g.AccumulateEdge(0, 1, std::numeric_limits<double>::infinity())
                  .IsInvalidArgument());
  // Nothing was accumulated: the edge is absent after finalizing.
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.edges(EdgeType::kWW).size(), 0u);
}

TEST(HeterographTest, UnsupportedTypePairRejected) {
  Heterograph g;
  const VertexId t0 = g.AddVertex(VertexType::kTime, "t0");
  const VertexId t1 = g.AddVertex(VertexType::kTime, "t1");
  EXPECT_TRUE(g.AccumulateEdge(t0, t1).IsInvalidArgument());
}

TEST(HeterographTest, AccumulateAfterFinalizeRejected) {
  Heterograph g;
  g.AddVertex(VertexType::kWord, "a");
  g.AddVertex(VertexType::kWord, "b");
  ASSERT_TRUE(g.AccumulateEdge(0, 1).ok());
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_TRUE(g.AccumulateEdge(0, 1).IsFailedPrecondition());
}

TEST(HeterographTest, DoubleFinalizeRejected) {
  Heterograph g;
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_TRUE(g.Finalize().IsFailedPrecondition());
}

TEST(HeterographTest, EmptyGraphFinalizes) {
  Heterograph g;
  ASSERT_TRUE(g.Finalize().ok());
  EXPECT_EQ(g.num_directed_edges(), 0);
}

TEST(HeterographTest, CsrConsistentWithEdgeList) {
  Heterograph g = SmallGraph();
  // Sum of adjacency weights over all vertices == sum of directed edge
  // weights, per type.
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    const EdgeType et = static_cast<EdgeType>(e);
    double edge_sum = 0.0;
    for (double w : g.edges(et).weight) edge_sum += w;
    double adj_sum = 0.0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (double w : g.NeighborWeights(et, v)) adj_sum += w;
    }
    EXPECT_DOUBLE_EQ(edge_sum, adj_sum) << EdgeTypeName(et);
  }
}

}  // namespace
}  // namespace actor
