#include "td/crh.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

TEST(CrhTest, FindsMajorityTruth) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  Crh crh;
  auto r = crh.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i), *truth.Get(0, i)) << "item " << i;
  }
}

TEST(CrhTest, TrustSeparatesGoodFromBad) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(20, &truth);
  Crh crh;
  auto r = crh.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->source_trust[0], 0.9);  // agrees with every election
  EXPECT_LT(r->source_trust[2], 0.1);  // agrees with none
}

TEST(CrhTest, WeightedVoteBeatsRawCountAfterCalibration) {
  // Two sources right on 20 calibration items; three sources each wrong in
  // different ways there, but agreeing on 5 contested items. After the
  // weight step the reliable pair must win the contested items.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 20; ++i) {
    std::string attr = Numbered("cal", i);
    specs.push_back({"g1", "o", attr, 10 + i});
    specs.push_back({"g2", "o", attr, 10 + i});
    specs.push_back({"b1", "o", attr, 100 + i});
    specs.push_back({"b2", "o", attr, 200 + i});
    specs.push_back({"b3", "o", attr, 300 + i});
  }
  for (int i = 0; i < 5; ++i) {
    std::string attr = "contested" + std::to_string(i);
    specs.push_back({"g1", "o", attr, 1000 + i});
    specs.push_back({"g2", "o", attr, 1000 + i});
    specs.push_back({"b1", "o", attr, 2000 + i});
    specs.push_back({"b2", "o", attr, 2000 + i});
    specs.push_back({"b3", "o", attr, 2000 + i});
  }
  Dataset d = BuildDataset(specs);
  Crh crh;
  auto r = crh.Discover(d);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, 20 + i), Value(int64_t{1000 + i}))
        << "contested " << i;
  }
}

TEST(CrhTest, ConfidencesAreVoteShares) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(5, &truth);
  Crh crh;
  auto r = crh.Discover(d);
  ASSERT_TRUE(r.ok());
  for (const auto& [key, c] : r->confidence) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(CrhTest, IterationsBoundedAndConvergesOnCleanData) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(10, &truth);
  Crh crh;
  auto r = crh.Discover(d);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_LE(r->iterations, 20);
}

TEST(CrhTest, NameIsStable) { EXPECT_EQ(Crh().name(), "CRH"); }

// Regression: when every source agrees with the election everywhere, every
// per-source loss is zero. The old code patched total_loss to 1, sending
// every weight to -log(loss_floor) via the floor — numerically fine but
// semantically arbitrary. The fallback now assigns uniform weights
// directly; the run must stay clean, finite, and elect the unanimous value.
TEST(CrhTest, AllSourcesAgreeUniformFallback) {
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 6; ++i) {
    std::string attr = Numbered("a", i);
    specs.push_back({"s1", "o", attr, 42 + i});
    specs.push_back({"s2", "o", attr, 42 + i});
    specs.push_back({"s3", "o", attr, 42 + i});
  }
  Dataset d = BuildDataset(specs);
  Crh crh;
  auto r = crh.Discover(d);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->degraded()) << StopReasonToString(r->stop_reason);
  ASSERT_EQ(r->source_trust.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(std::isfinite(r->source_trust[s])) << "source " << s;
    // Uniform fallback: no source is favored over another.
    EXPECT_DOUBLE_EQ(r->source_trust[s], r->source_trust[0]);
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(*r->predicted.Get(0, i), Value(int64_t{42 + i})) << "item " << i;
  }
}

TEST(CrhTest, EmptyDatasetRejected) {
  Dataset d;
  EXPECT_FALSE(Crh().Discover(d).ok());
}

}  // namespace
}  // namespace tdac
