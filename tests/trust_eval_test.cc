#include "eval/trust_eval.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "gen/synthetic.h"
#include "td/accu.h"
#include "tdac/tdac.h"
#include "test_util.h"

namespace tdac {
namespace {

TEST(EmpiricalAccuracyTest, CountsMatches) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  auto acc = EmpiricalSourceAccuracy(d, truth);
  ASSERT_EQ(acc.size(), 3u);
  EXPECT_DOUBLE_EQ(acc[0], 1.0);
  EXPECT_DOUBLE_EQ(acc[1], 1.0);
  EXPECT_DOUBLE_EQ(acc[2], 0.0);
}

TEST(EmpiricalAccuracyTest, UncoveredSourceGetsMinusOne) {
  DatasetBuilder b;
  b.AddSource("idle");
  EXPECT_TRUE(b.AddClaim("s1", "o", "a", Value(int64_t{1})).ok());
  EXPECT_TRUE(b.AddClaim("s2", "o", "a", Value(int64_t{1})).ok());
  Dataset d = b.Build().MoveValue();
  GroundTruth truth;
  truth.Set(0, 0, Value(int64_t{1}));
  auto acc = EmpiricalSourceAccuracy(d, truth);
  EXPECT_DOUBLE_EQ(acc[0], -1.0);
}

TEST(TrustEvalTest, PerfectEstimateScoresPerfectCorrelation) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  std::vector<double> estimated{1.0, 1.0, 0.0};  // exactly empirical
  auto e = EvaluateTrust(d, estimated, truth);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e->pearson, 1.0, 1e-9);
  EXPECT_NEAR(e->spearman, 1.0, 1e-9);
  EXPECT_NEAR(e->mean_abs_error, 0.0, 1e-9);
  EXPECT_EQ(e->sources_evaluated, 3u);
}

TEST(TrustEvalTest, InvertedEstimateScoresNegativeCorrelation) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  std::vector<double> estimated{0.0, 0.0, 1.0};
  auto e = EvaluateTrust(d, estimated, truth);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e->pearson, -1.0, 1e-9);
  EXPECT_NEAR(e->spearman, -1.0, 1e-9);
}

TEST(TrustEvalTest, RejectsBadInput) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(5, &truth);
  EXPECT_FALSE(EvaluateTrust(d, {0.5}, truth).ok());  // wrong size
  GroundTruth empty;
  EXPECT_FALSE(EvaluateTrust(d, {0.5, 0.5, 0.5}, empty).ok());
}

TEST(TrustEvalTest, PartitionedAccuTrustAtLeastAsCorrelated) {
  // The paper's mechanism: on structurally correlated data, per-partition
  // reliability estimates should track empirical accuracy at least as well
  // as global ones.
  auto config = PaperSyntheticConfig(2, 77).MoveValue();
  config.num_objects = 150;
  auto data = GenerateSynthetic(config).MoveValue();
  Accu accu;
  TdacOptions topts;
  topts.base = &accu;
  Tdac td(topts);
  auto global = accu.Discover(data.dataset).MoveValue();
  auto partitioned = td.Discover(data.dataset).MoveValue();
  auto ge = EvaluateTrust(data.dataset, global.source_trust, data.truth);
  auto pe = EvaluateTrust(data.dataset, partitioned.source_trust, data.truth);
  ASSERT_TRUE(ge.ok());
  ASSERT_TRUE(pe.ok());
  EXPECT_GE(pe->pearson + 0.05, ge->pearson);
}

TEST(TrustEvalTest, SpearmanHandlesTies) {
  DatasetBuilder b;
  for (int i = 0; i < 4; ++i) {
    for (int a = 0; a < 3; ++a) {
      // s0,s1 always right; s2,s3 always wrong (tied groups).
      int64_t v = (i < 2) ? 1 : 2;
      EXPECT_TRUE(b.AddClaim(Numbered("s", i), "o",
                             Numbered("a", a), Value(v))
                      .ok());
    }
  }
  Dataset d = b.Build().MoveValue();
  GroundTruth truth;
  for (int a = 0; a < 3; ++a) truth.Set(0, a, Value(int64_t{1}));
  std::vector<double> estimated{0.9, 0.9, 0.1, 0.1};
  auto e = EvaluateTrust(d, estimated, truth);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e->spearman, 1.0, 1e-9);
}

}  // namespace
}  // namespace tdac
