#include "td/investment.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

TEST(InvestmentTest, FindsMajorityTruth) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  Investment inv;
  auto r = inv.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i), *truth.Get(0, i)) << "item " << i;
  }
}

TEST(InvestmentTest, TrustSeparatesGoodFromBad) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(20, &truth);
  Investment inv;
  auto r = inv.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->source_trust[0], r->source_trust[2]);
}

TEST(InvestmentTest, GrowthExponentSharpensWinners) {
  // With a > 1 exponent the majority value's belief share should exceed its
  // raw vote share.
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 1},
      {"s3", "o", "a", 2},
  });
  Investment inv;
  auto r = inv.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->confidence.at(ObjectAttrKey(0, 0)), 2.0 / 3.0);
}

TEST(InvestmentTest, ConfidencesAreNormalizedPerItem) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  Investment inv;
  auto r = inv.Discover(d);
  ASSERT_TRUE(r.ok());
  for (const auto& [key, c] : r->confidence) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(PooledInvestmentTest, FindsMajorityTruth) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  PooledInvestment pooled;
  auto r = pooled.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i), *truth.Get(0, i));
  }
}

TEST(PooledInvestmentTest, DefaultExponentIs1Point4) {
  EXPECT_DOUBLE_EQ(PooledInvestment::DefaultOptions().exponent, 1.4);
}

TEST(PooledInvestmentTest, PoolingPreservesPerItemInvestmentMass) {
  // PooledInvestment rescales beliefs so their per-item sum equals the
  // collected investment; a lone high-conflict item cannot dominate a
  // source's payoff.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 10; ++i) {
    std::string attr = Numbered("a", i);
    specs.push_back({"s1", "o", attr, 10 + i});
    specs.push_back({"s2", "o", attr, 10 + i});
    specs.push_back({"s3", "o", attr, 99 + i});
  }
  Dataset d = BuildDataset(specs);
  PooledInvestment pooled;
  auto r = pooled.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i), Value(int64_t{10 + i}));
  }
}

TEST(InvestmentTest, NamesAreStable) {
  EXPECT_EQ(Investment().name(), "Investment");
  EXPECT_EQ(PooledInvestment().name(), "PooledInvestment");
}

TEST(InvestmentTest, IterationsBoundedAndReported) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(5, &truth);
  InvestmentOptions opts;
  opts.base.max_iterations = 2;
  Investment inv(opts);
  auto r = inv.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->iterations, 2);
  EXPECT_GE(r->iterations, 1);
}

}  // namespace
}  // namespace tdac
