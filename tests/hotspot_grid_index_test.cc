#include "hotspot/grid_index.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.h"

namespace actor {
namespace {

/// Brute-force nearest with the same tie-break (smallest index).
int32_t BruteNearest(const std::vector<GeoPoint>& points,
                     const GeoPoint& query) {
  int32_t best = -1;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = Distance(query, points[i]);
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int32_t>(i);
    }
  }
  return best;
}

TEST(GridIndexTest, EmptyReturnsMinusOne) {
  Grid2dIndex index({});
  EXPECT_EQ(index.Nearest({0, 0}), -1);
}

TEST(GridIndexTest, SinglePoint) {
  Grid2dIndex index({{3, 4}});
  EXPECT_EQ(index.Nearest({0, 0}), 0);
  EXPECT_EQ(index.Nearest({100, 100}), 0);
}

TEST(GridIndexTest, ExactHits) {
  std::vector<GeoPoint> points = {{0, 0}, {10, 0}, {0, 10}};
  Grid2dIndex index(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(index.Nearest(points[i]), static_cast<int32_t>(i));
  }
}

TEST(GridIndexTest, FarQueryOutsideGrid) {
  std::vector<GeoPoint> points = {{1, 1}, {2, 2}};
  Grid2dIndex index(points);
  EXPECT_EQ(index.Nearest({-500, -500}), 0);
  EXPECT_EQ(index.Nearest({500, 500}), 1);
}

class GridIndexPropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(GridIndexPropertySweep, MatchesBruteForce) {
  const int n = GetParam();
  Rng rng(n * 31 + 7);
  std::vector<GeoPoint> points(n);
  for (auto& p : points) {
    // Mixture of clustered and scattered points.
    if (rng.Bernoulli(0.5)) {
      p = {rng.Gaussian(10.0, 1.0), rng.Gaussian(10.0, 1.0)};
    } else {
      p = {rng.UniformRange(-40.0, 40.0), rng.UniformRange(-40.0, 40.0)};
    }
  }
  Grid2dIndex index(points);
  for (int q = 0; q < 300; ++q) {
    const GeoPoint query{rng.UniformRange(-50.0, 50.0),
                         rng.UniformRange(-50.0, 50.0)};
    ASSERT_EQ(index.Nearest(query), BruteNearest(points, query))
        << "query (" << query.x << ", " << query.y << ") n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GridIndexPropertySweep,
                         ::testing::Values(1, 2, 3, 10, 100, 1000));

TEST(GridIndexTest, ExplicitCellSizeWorks) {
  Rng rng(9);
  std::vector<GeoPoint> points(200);
  for (auto& p : points) {
    p = {rng.UniformRange(0.0, 20.0), rng.UniformRange(0.0, 20.0)};
  }
  Grid2dIndex coarse(points, 10.0);
  Grid2dIndex fine(points, 0.1);
  for (int q = 0; q < 100; ++q) {
    const GeoPoint query{rng.UniformRange(0.0, 20.0),
                         rng.UniformRange(0.0, 20.0)};
    EXPECT_EQ(coarse.Nearest(query), fine.Nearest(query));
  }
}

// Queries far outside the hotspot box: the ring walk grew with the
// distance (the cell index clamps at 1e9, so 1e12 km never returned).
// They are answered by the linear scan, with the same smallest-index
// tie-break.
TEST(GridIndexTest, FarFiniteQueriesMatchLinearScan) {
  std::vector<GeoPoint> points;
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) points.push_back({i * 1.0, j * 1.0});
  }
  Grid2dIndex index(points);
  for (const double far : {1e7, -1e7, 1e12, -1e12}) {
    for (const GeoPoint& q :
         {GeoPoint{far, 4.5}, GeoPoint{4.5, far}, GeoPoint{far, far},
          GeoPoint{far, -far}, GeoPoint{far, 0.0}}) {
      const int32_t want = NearestPoint(points, q).index;
      ASSERT_GE(want, 0);
      EXPECT_EQ(index.Nearest(q), want) << "(" << q.x << ", " << q.y << ")";
      EXPECT_EQ(want, BruteNearest(points, q));
    }
  }
}

TEST(GridIndexTest, NonFiniteQueryMatchesNothing) {
  Grid2dIndex index({{0, 0}, {1, 1}});
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const GeoPoint& q : {GeoPoint{nan, 0.0}, GeoPoint{0.0, nan},
                            GeoPoint{inf, 0.0}, GeoPoint{0.0, -inf}}) {
    EXPECT_EQ(index.Nearest(q), -1) << "(" << q.x << ", " << q.y << ")";
  }
}

TEST(GridIndexTest, CoincidentPointsTieBreakToSmallestIndex) {
  std::vector<GeoPoint> points = {{5, 5}, {5, 5}, {5, 5}};
  Grid2dIndex index(points);
  EXPECT_EQ(index.Nearest({5, 5}), 0);
  EXPECT_EQ(index.Nearest({6, 6}), 0);
}

}  // namespace
}  // namespace actor
