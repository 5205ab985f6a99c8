#include "metrics/histogram.h"

#include <cmath>

#include <gtest/gtest.h>

namespace retrasyn {
namespace {

constexpr double kLn2 = 0.6931471805599453;

TEST(JsdTest, IdenticalDistributionsAreZero) {
  EXPECT_DOUBLE_EQ(
      JensenShannonDivergence(std::vector<double>{0.5, 0.3, 0.2},
                              std::vector<double>{0.5, 0.3, 0.2}),
      0.0);
}

TEST(JsdTest, ScaleInvariant) {
  const std::vector<double> p{1.0, 2.0, 3.0};
  const std::vector<double> q{10.0, 20.0, 30.0};
  EXPECT_NEAR(JensenShannonDivergence(p, q), 0.0, 1e-12);
}

TEST(JsdTest, DisjointSupportsHitLn2) {
  EXPECT_NEAR(JensenShannonDivergence(std::vector<double>{1.0, 0.0},
                                      std::vector<double>{0.0, 1.0}),
              kLn2, 1e-12);
}

TEST(JsdTest, EmptyMassConventions) {
  EXPECT_DOUBLE_EQ(JensenShannonDivergence(std::vector<double>{0.0, 0.0},
                                           std::vector<double>{0.0, 0.0}),
                   0.0);
  EXPECT_NEAR(JensenShannonDivergence(std::vector<double>{1.0, 1.0},
                                      std::vector<double>{0.0, 0.0}),
              kLn2, 1e-12);
}

TEST(JsdTest, KnownHalfMixValue) {
  // JSD({1,0},{1/2,1/2}) = ln2 - (3/4)ln... compute directly:
  // M = {3/4, 1/4}; JSD = 0.5*KL(P||M) + 0.5*KL(Q||M)
  // KL(P||M) = 1*ln(1/(3/4)) = ln(4/3)
  // KL(Q||M) = 0.5*ln((1/2)/(3/4)) + 0.5*ln((1/2)/(1/4))
  //          = 0.5*ln(2/3) + 0.5*ln(2)
  const double expected =
      0.5 * std::log(4.0 / 3.0) + 0.5 * (0.5 * std::log(2.0 / 3.0) +
                                         0.5 * std::log(2.0));
  EXPECT_NEAR(JensenShannonDivergence(std::vector<double>{1.0, 0.0},
                                      std::vector<double>{0.5, 0.5}),
              expected, 1e-12);
}

TEST(JsdTest, SymmetricAndBounded) {
  const std::vector<double> p{0.7, 0.1, 0.2};
  const std::vector<double> q{0.2, 0.5, 0.3};
  const double pq = JensenShannonDivergence(p, q);
  const double qp = JensenShannonDivergence(q, p);
  EXPECT_NEAR(pq, qp, 1e-12);
  EXPECT_GT(pq, 0.0);
  EXPECT_LT(pq, kLn2);
}

TEST(JsdTest, NegativeEntriesTreatedAsZero) {
  EXPECT_NEAR(JensenShannonDivergence(std::vector<double>{1.0, -5.0},
                                      std::vector<double>{1.0, 0.0}),
              0.0, 1e-12);
}

TEST(JsdTest, CountOverloadMatches) {
  const std::vector<uint32_t> p{3, 1};
  const std::vector<uint32_t> q{1, 3};
  EXPECT_NEAR(JensenShannonDivergence(p, q),
              JensenShannonDivergence(std::vector<double>{0.75, 0.25},
                                      std::vector<double>{0.25, 0.75}),
              1e-12);
}

TEST(KendallTest, PerfectAgreement) {
  EXPECT_DOUBLE_EQ(KendallTauB({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0);
}

TEST(KendallTest, PerfectDisagreement) {
  EXPECT_DOUBLE_EQ(KendallTauB({1, 2, 3, 4}, {40, 30, 20, 10}), -1.0);
}

TEST(KendallTest, KnownMixedCase) {
  // Pairs: (1,1),(2,3),(3,2): concordant = (1,2),(1,3); discordant = (2,3).
  EXPECT_NEAR(KendallTauB({1, 2, 3}, {1, 3, 2}), 1.0 / 3.0, 1e-12);
}

TEST(KendallTest, ConstantVectorIsZero) {
  EXPECT_DOUBLE_EQ(KendallTauB({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(KendallTauB({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(KendallTauB({5.0}, {2.0}), 0.0);
}

TEST(KendallTest, TieCorrection) {
  // With ties in one vector, tau-b uses the sqrt correction. Verify against a
  // hand computation: a = {1,1,2}, b = {1,2,3}.
  // Pairs: (a1,a2) tie in a; (a1,a3) concordant; (a2,a3) concordant.
  // n0 = 2, ties_a = 1, ties_b = 0 -> tau = 2 / sqrt(3 * 2).
  EXPECT_NEAR(KendallTauB({1, 1, 2}, {1, 2, 3}), 2.0 / std::sqrt(6.0), 1e-12);
}

TEST(TopKTest, OrderingAndTieBreaks) {
  const std::vector<double> scores{0.1, 0.9, 0.5, 0.9, 0.2};
  const auto top = TopKIndices(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // tie with 3, lower index wins
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 2u);
}

TEST(TopKTest, KLargerThanSize) {
  const auto top = TopKIndices({0.3, 0.1}, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 0u);
}

TEST(TopKTest, NonPositiveKIsEmpty) {
  // Regression: min<size_t>(k, size) turned k = -1 into SIZE_MAX and
  // returned every index.
  const std::vector<double> scores{0.3, 0.1, 0.7};
  EXPECT_TRUE(TopKIndices(scores, 0).empty());
  EXPECT_TRUE(TopKIndices(scores, -1).empty());
  EXPECT_TRUE(TopKIndices(scores, -1000).empty());
}

TEST(NdcgTest, PerfectRankingIsOne) {
  const std::vector<double> rel{0.0, 10.0, 5.0, 1.0};
  const std::vector<uint32_t> ranking{1, 2, 3};
  EXPECT_NEAR(NdcgAtK(rel, ranking, 3), 1.0, 1e-12);
}

TEST(NdcgTest, WorstRankingBelowOne) {
  const std::vector<double> rel{0.0, 10.0, 5.0, 1.0};
  const std::vector<uint32_t> good{1, 2, 3};
  const std::vector<uint32_t> bad{0, 3, 2};
  EXPECT_LT(NdcgAtK(rel, bad, 3), NdcgAtK(rel, good, 3));
}

TEST(NdcgTest, HandComputedValue) {
  const std::vector<double> rel{3.0, 2.0, 1.0};
  const std::vector<uint32_t> ranking{1, 0, 2};  // rel 2, 3, 1
  const double dcg = 2.0 / std::log2(2.0) + 3.0 / std::log2(3.0) +
                     1.0 / std::log2(4.0);
  const double idcg = 3.0 / std::log2(2.0) + 2.0 / std::log2(3.0) +
                      1.0 / std::log2(4.0);
  EXPECT_NEAR(NdcgAtK(rel, ranking, 3), dcg / idcg, 1e-12);
}

TEST(NdcgTest, ZeroRelevanceIsZero) {
  EXPECT_DOUBLE_EQ(NdcgAtK({0.0, 0.0}, {0, 1}, 2), 0.0);
}

TEST(NdcgTest, NonPositiveKIsZero) {
  // Regression: k = -1 used to score the whole ranking.
  const std::vector<double> rel{3.0, 2.0, 1.0};
  const std::vector<uint32_t> ranking{0, 1, 2};
  EXPECT_DOUBLE_EQ(NdcgAtK(rel, ranking, 0), 0.0);
  EXPECT_DOUBLE_EQ(NdcgAtK(rel, ranking, -1), 0.0);
}

}  // namespace
}  // namespace retrasyn
