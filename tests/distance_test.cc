#include "clustering/distance.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace tdac {
namespace {

TEST(DistanceTest, HammingOnBinaryVectors) {
  FeatureVector a{1, 0, 1, 0};
  FeatureVector b{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(HammingDistance(a, b), 2.0);
  EXPECT_DOUBLE_EQ(HammingDistance(a, a), 0.0);
}

TEST(DistanceTest, HammingEqualsSquaredEuclideanOnBinary) {
  FeatureVector a{1, 0, 1, 0, 1, 1};
  FeatureVector b{0, 0, 1, 1, 0, 1};
  EXPECT_DOUBLE_EQ(HammingDistance(a, b), SquaredEuclideanDistance(a, b));
}

TEST(DistanceTest, SquaredEuclidean) {
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
}

TEST(DistanceTest, SymmetryAndIdentity) {
  FeatureVector a{0.3, 0.7, 0.1};
  FeatureVector b{0.9, 0.2, 0.4};
  for (DistanceMetric m :
       {DistanceMetric::kHamming, DistanceMetric::kSquaredEuclidean,
        DistanceMetric::kEuclidean}) {
    EXPECT_DOUBLE_EQ(Distance(m, a, b), Distance(m, b, a));
    EXPECT_DOUBLE_EQ(Distance(m, a, a), 0.0);
    EXPECT_GE(Distance(m, a, b), 0.0);
  }
}

TEST(MaskedHammingTest, ComparesOnlyCoObservedCoordinates) {
  FeatureVector a{1, 0, 1, 0};
  FeatureVector b{1, 1, 0, 0};
  std::vector<uint8_t> ma{1, 1, 0, 1};
  std::vector<uint8_t> mb{1, 1, 1, 0};
  // Co-observed: coords 0 and 1; diff = 1 over 2 coords, rescaled to dim 4.
  EXPECT_DOUBLE_EQ(MaskedHammingDistance(a, b, ma, mb), 1.0 * 4.0 / 2.0);
}

TEST(MaskedHammingTest, FullMasksEqualPlainHamming) {
  FeatureVector a{1, 0, 1, 0};
  FeatureVector b{0, 0, 1, 1};
  std::vector<uint8_t> full(4, 1);
  EXPECT_DOUBLE_EQ(MaskedHammingDistance(a, b, full, full),
                   HammingDistance(a, b));
}

TEST(MaskedHammingTest, NoOverlapGivesHalfDimension) {
  FeatureVector a{1, 0};
  FeatureVector b{0, 1};
  std::vector<uint8_t> ma{1, 0};
  std::vector<uint8_t> mb{0, 1};
  EXPECT_DOUBLE_EQ(MaskedHammingDistance(a, b, ma, mb), 1.0);
}

TEST(DistanceDeathTest, SizeMismatchAborts) {
  FeatureVector a{1, 2};
  FeatureVector b{1};
  EXPECT_DEATH((void)HammingDistance(a, b), "size mismatch");
  EXPECT_DEATH((void)SquaredEuclideanDistance(a, b), "size mismatch");
}

// The pairwise matrix is symmetric with a zero diagonal, every cell is the
// metric itself, and the row fan-out never changes a bit.
TEST(DistanceTest, PairwiseDistancesMatchesMetricAtEveryWidth) {
  Rng rng(7);
  std::vector<FeatureVector> points(9, FeatureVector(5));
  for (FeatureVector& p : points) {
    for (double& x : p) x = rng.NextDouble();
  }
  ParallelForOptions serial;
  serial.max_parallelism = 1;
  const DistanceMatrix m =
      PairwiseDistances(points, DistanceMetric::kEuclidean, serial);
  ASSERT_EQ(m.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(m[i].size(), points.size());
    EXPECT_EQ(m[i][i], 0.0);
    for (size_t j = 0; j < points.size(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(m[i][j], m[j][i]);
      EXPECT_EQ(m[i][j], EuclideanDistance(points[i], points[j]));
    }
  }
  ParallelForOptions wide;
  wide.max_parallelism = 8;
  EXPECT_EQ(PairwiseDistances(points, DistanceMetric::kEuclidean, wide), m);
  EXPECT_TRUE(PairwiseDistances({}, DistanceMetric::kHamming).empty());
}

}  // namespace
}  // namespace tdac
