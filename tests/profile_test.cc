#include "data/profile.h"

#include <sstream>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "gen/synthetic.h"
#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

TEST(ProfileTest, CountsMatchSmallDataset) {
  // Item a: values {1, 1, 2} (conflicted, strict majority for 1).
  // Item b: values {3, 4}   (conflicted, no strict majority).
  // Item c: value {5}       (no conflict).
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 1},
      {"s3", "o", "a", 2},
      {"s1", "o", "b", 3},
      {"s2", "o", "b", 4},
      {"s1", "o", "c", 5},
  });
  DatasetProfile p = ProfileDataset(d);
  EXPECT_EQ(p.num_sources, 3);
  EXPECT_EQ(p.num_objects, 1);
  EXPECT_EQ(p.num_attributes, 3);
  EXPECT_EQ(p.num_claims, 6u);
  EXPECT_EQ(p.num_items, 3u);
  EXPECT_EQ(p.max_claims_per_item, 3u);
  EXPECT_DOUBLE_EQ(p.mean_claims_per_item, 2.0);
  EXPECT_EQ(p.max_distinct_values_per_item, 2u);
  EXPECT_NEAR(p.conflict_rate, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(p.majority_decisive_rate, 0.5, 1e-12);
  // Histogram: one item with 1 distinct value, two items with 2.
  EXPECT_EQ(p.distinct_value_histogram[1], 1u);
  EXPECT_EQ(p.distinct_value_histogram[2], 2u);
}

TEST(ProfileTest, SourceCoverageStats) {
  Dataset d = BuildDataset({
      {"busy", "o", "a", 1},
      {"busy", "o", "b", 1},
      {"busy", "o", "c", 1},
      {"lazy", "o", "a", 2},
  });
  DatasetProfile p = ProfileDataset(d);
  EXPECT_EQ(p.min_claims_per_source, 1u);
  EXPECT_EQ(p.max_claims_per_source, 3u);
  EXPECT_DOUBLE_EQ(p.mean_claims_per_source, 2.0);
}

TEST(ProfileTest, UnanimousDatasetHasZeroConflict) {
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 1},
      {"s1", "o", "b", 2},
      {"s2", "o", "b", 2},
  });
  DatasetProfile p = ProfileDataset(d);
  EXPECT_DOUBLE_EQ(p.conflict_rate, 0.0);
  EXPECT_DOUBLE_EQ(p.majority_decisive_rate, 0.0);
}

TEST(ProfileTest, HistogramTailBucketAggregates) {
  // One item with 12 distinct values lands in the 10+ bucket.
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < 12; ++i) {
    specs.push_back({Numbered("s", i), "o", "a", 100 + i});
  }
  Dataset d = BuildDataset(specs);
  DatasetProfile p = ProfileDataset(d);
  EXPECT_EQ(p.distinct_value_histogram.back(), 1u);
  EXPECT_EQ(p.max_distinct_values_per_item, 12u);
}

TEST(ProfileTest, ConsistentWithGeneratedDataset) {
  SyntheticConfig config;
  config.num_objects = 30;
  config.num_sources = 6;
  config.planted_groups = {{0, 1}, {2}};
  config.seed = 2;
  auto data = GenerateSynthetic(config).MoveValue();
  DatasetProfile p = ProfileDataset(data.dataset);
  EXPECT_EQ(p.num_claims, data.dataset.num_claims());
  EXPECT_EQ(p.num_items, data.dataset.DataItems().size());
  EXPECT_NEAR(p.dcr, data.dataset.DataCoverageRate(), 1e-12);
  EXPECT_NEAR(p.mean_claims_per_item, 6.0, 1e-12);  // full coverage
}

TEST(ProfileTest, PrintMentionsKeyStatistics) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(4, &truth);
  DatasetProfile p = ProfileDataset(d);
  std::ostringstream os;
  PrintProfile(p, os);
  std::string out = os.str();
  EXPECT_NE(out.find("observations"), std::string::npos);
  EXPECT_NE(out.find("conflicted items"), std::string::npos);
  EXPECT_NE(out.find("distinct-value histogram"), std::string::npos);
}

}  // namespace
}  // namespace tdac
