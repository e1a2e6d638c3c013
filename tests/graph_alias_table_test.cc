#include "graph/alias_table.h"

#include <gtest/gtest.h>

#include <vector>

namespace actor {
namespace {

TEST(AliasTableTest, EmptyWeightsError) {
  EXPECT_TRUE(AliasTable::Create({}).status().IsInvalidArgument());
}

TEST(AliasTableTest, NegativeWeightError) {
  EXPECT_TRUE(AliasTable::Create({1.0, -0.5}).status().IsInvalidArgument());
}

TEST(AliasTableTest, AllZeroWeightsError) {
  EXPECT_TRUE(AliasTable::Create({0.0, 0.0}).status().IsInvalidArgument());
}

TEST(AliasTableTest, SingleWeightAlwaysSampled) {
  auto table = AliasTable::Create({5.0});
  ASSERT_TRUE(table.ok());
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table->Sample(rng), 0u);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  auto table = AliasTable::Create({1.0, 0.0, 1.0});
  ASSERT_TRUE(table.ok());
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(table->Sample(rng), 1u);
}

TEST(AliasTableTest, ProbabilityAccessor) {
  auto table = AliasTable::Create({1.0, 3.0});
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(table->Probability(0), 0.25);
  EXPECT_DOUBLE_EQ(table->Probability(1), 0.75);
}

TEST(AliasTableTest, SizeMatches) {
  auto table = AliasTable::Create({1, 2, 3, 4});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->size(), 4u);
}

class AliasDistributionSweep
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(AliasDistributionSweep, EmpiricalMatchesWeights) {
  const std::vector<double>& weights = GetParam();
  auto table = AliasTable::Create(weights);
  ASSERT_TRUE(table.ok());
  double total = 0.0;
  for (double w : weights) total += w;

  Rng rng(42);
  const int n = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < n; ++i) ++counts[table->Sample(rng)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / total;
    const double observed = static_cast<double>(counts[i]) / n;
    EXPECT_NEAR(observed, expected, 0.01) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, AliasDistributionSweep,
    ::testing::Values(std::vector<double>{1.0, 1.0},
                      std::vector<double>{1.0, 2.0, 3.0, 4.0},
                      std::vector<double>{10.0, 0.1},
                      std::vector<double>{0.25, 0.25, 0.25, 0.25},
                      std::vector<double>{5.0, 0.0, 5.0},
                      std::vector<double>{1e-6, 1e6},
                      std::vector<double>(100, 1.0)));

TEST(AliasTableTest, ProbabilitiesSumToOne) {
  auto table = AliasTable::Create({0.3, 2.7, 9.1, 0.01, 4.5});
  ASSERT_TRUE(table.ok());
  double sum = 0.0;
  for (std::size_t i = 0; i < table->size(); ++i) sum += table->Probability(i);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(AliasTableTest, InPlaceRebuildDrawsLikeAFreshTable) {
  // The streaming samplers are rebuilt in place batch after batch, so a
  // used table's Rebuild must leave nothing of its previous weight set
  // behind: it draws exactly what a freshly built table draws, whether
  // the previous set was larger or smaller.
  const std::vector<double> weights = {0.5, 3.0, 0.0, 1.25, 2.0, 0.75};
  const std::vector<std::vector<double>> previous = {
      std::vector<double>(17, 1.0),  // larger
      {9.0, 0.1},                    // smaller
  };
  auto fresh = AliasTable::Create(weights);
  ASSERT_TRUE(fresh.ok());
  for (const std::vector<double>& prev : previous) {
    auto reused = AliasTable::Create(prev);
    ASSERT_TRUE(reused.ok());
    Rng warm(5);
    for (int i = 0; i < 100; ++i) reused->Sample(warm);
    reused->Reserve(weights.size());
    ASSERT_TRUE(reused->RebuildReserved(weights).ok());
    ASSERT_EQ(reused->size(), fresh->size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      EXPECT_EQ(reused->Probability(i), fresh->Probability(i))
          << "index " << i;
    }
    Rng a(11), b(11);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(reused->Sample(a), fresh->Sample(b))
          << "draw " << i << " after " << prev.size() << " weights";
    }
  }
}

TEST(AliasTableTest, SameSizeRebuildsKeepCapacity) {
  // The streaming samplers rebuild on the shard pool, where nothing may
  // allocate: once reserved, rebuilds of up to that many weights reuse the
  // bucket storage and worklists, and a larger set is refused untouched.
  AliasTable table;
  table.Reserve(8);
  const std::size_t capacity = table.capacity();
  EXPECT_GE(capacity, 8u);
  for (int round = 0; round < 5; ++round) {
    std::vector<double> weights(8);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      weights[i] = static_cast<double>((i * 7 + round) % 5);
    }
    ASSERT_TRUE(table.RebuildReserved(weights).ok());
    EXPECT_EQ(table.size(), 8u);
    EXPECT_EQ(table.capacity(), capacity) << "round " << round;
  }
  ASSERT_TRUE(table.RebuildReserved(std::vector<double>{1.0, 3.0}).ok());
  EXPECT_EQ(table.capacity(), capacity);
  const Status past = table.RebuildReserved(std::vector<double>(9, 1.0));
  EXPECT_TRUE(past.IsFailedPrecondition()) << past.ToString();
  EXPECT_EQ(table.size(), 2u);
  EXPECT_DOUBLE_EQ(table.Probability(1), 0.75);
  table.Reserve(9);
  EXPECT_GE(table.capacity(), 9u);
  EXPECT_TRUE(table.RebuildReserved(std::vector<double>(9, 1.0)).ok());

  // Create() frees its one-shot table's worklists; a later Reserve()
  // smaller than the table restores them and keeps the table intact.
  auto created = AliasTable::Create({1.0, 1.0, 2.0});
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created->capacity(), 0u);
  created->Reserve(2);
  EXPECT_GE(created->capacity(), 3u);
  ASSERT_EQ(created->size(), 3u);
  EXPECT_DOUBLE_EQ(created->Probability(2), 0.5);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_LT(created->Sample(rng), 3u);
}

TEST(AliasTableTest, DeterministicGivenRngSeed) {
  auto table = AliasTable::Create({1.0, 2.0, 3.0});
  ASSERT_TRUE(table.ok());
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table->Sample(a), table->Sample(b));
}

}  // namespace
}  // namespace actor
