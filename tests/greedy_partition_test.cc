#include "partition/greedy_partition.h"

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "gen/synthetic.h"
#include "partition/partition_metrics.h"
#include "td/accu.h"
#include "td/majority_vote.h"
#include "test_util.h"

namespace tdac {
namespace {

GeneratedData SmallCorrelated(uint64_t seed = 7) {
  SyntheticConfig config;
  config.num_objects = 40;
  config.num_sources = 6;
  config.planted_groups = {{0, 1}, {2, 3}};
  config.reliability_levels = {0.95, 0.1};
  config.num_false_values = 8;
  config.seed = seed;
  auto data = GenerateSynthetic(config);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data.MoveValue();
}

TEST(GreedyPartitionTest, ProducesValidPartitionAndPredictions) {
  GeneratedData data = SmallCorrelated();
  Accu base;
  GenPartitionOptions opts;
  opts.base = &base;
  opts.weighting = WeightingFunction::kAvg;
  GreedyPartitionAlgorithm greedy(opts);
  auto report = greedy.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->best_partition.num_attributes(), 4u);
  EXPECT_EQ(report->result.predicted.size(), data.dataset.DataItems().size());
  EXPECT_EQ(report->result.iterations, -1);
}

TEST(GreedyPartitionTest, ExploresFarFewerPartitionsThanExhaustive) {
  GeneratedData data = SmallCorrelated();
  Accu base;
  GenPartitionOptions opts;
  opts.base = &base;
  GreedyPartitionAlgorithm greedy(opts);
  GenPartitionAlgorithm exhaustive(opts);
  auto greedy_report = greedy.DiscoverWithReport(data.dataset);
  auto full_report = exhaustive.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(greedy_report.ok());
  ASSERT_TRUE(full_report.ok());
  EXPECT_EQ(full_report->partitions_explored, 15u);  // Bell(4)
  // Greedy: 1 (singletons) + at most sum of pair counts per level.
  EXPECT_LT(greedy_report->partitions_explored,
            full_report->partitions_explored);
}

TEST(GreedyPartitionTest, ExhaustiveScoreUpperBoundsGreedy) {
  GeneratedData data = SmallCorrelated(9);
  Accu base;
  GenPartitionOptions opts;
  opts.base = &base;
  opts.weighting = WeightingFunction::kOracle;
  opts.oracle_truth = &data.truth;
  GreedyPartitionAlgorithm greedy(opts);
  GenPartitionAlgorithm exhaustive(opts);
  auto greedy_report = greedy.DiscoverWithReport(data.dataset);
  auto full_report = exhaustive.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(greedy_report.ok());
  ASSERT_TRUE(full_report.ok());
  EXPECT_GE(full_report->best_score + 1e-9, greedy_report->best_score);
}

TEST(GreedyPartitionTest, ScalesBeyondTheExhaustiveCap) {
  // 12 attributes: Bell(12) = 4,213,597 is refused by the exhaustive
  // search at its default cap, but greedy handles it.
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(12, &truth);
  MajorityVote base;
  GenPartitionOptions opts;
  opts.base = &base;
  GreedyPartitionAlgorithm greedy(opts);
  auto report = greedy.DiscoverWithReport(d);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->best_partition.num_attributes(), 12u);
}

TEST(GreedyPartitionTest, OracleGreedyNeverWorseThanSingletons) {
  // Hill climbing only accepts improving merges, so the final score is at
  // least the all-singletons starting score (it may still be a local
  // optimum below the exhaustive best).
  GeneratedData data = SmallCorrelated(11);
  Accu base;
  GenPartitionOptions opts;
  opts.base = &base;
  opts.weighting = WeightingFunction::kOracle;
  opts.oracle_truth = &data.truth;
  GreedyPartitionAlgorithm greedy(opts);
  auto report = greedy.DiscoverWithReport(data.dataset);
  ASSERT_TRUE(report.ok());

  // Score of the all-singletons partition, computed independently.
  std::vector<std::vector<AttributeId>> singles;
  for (AttributeId a : data.dataset.ActiveAttributes()) singles.push_back({a});
  AttributePartition singletons =
      AttributePartition::FromGroups(singles).MoveValue();
  GroundTruth merged;
  for (const auto& group : singletons.groups()) {
    Dataset restricted = testutil::RestrictedCopy(data.dataset, group);
    auto r = base.Discover(restricted);
    ASSERT_TRUE(r.ok());
    merged.MergeFrom(r->predicted);
  }
  double singleton_score =
      Evaluate(data.dataset, merged, data.truth).accuracy;
  EXPECT_GE(report->best_score + 1e-9, singleton_score);
  double accuracy =
      Evaluate(data.dataset, report->result.predicted, data.truth).accuracy;
  EXPECT_NEAR(accuracy, report->best_score, 1e-9);  // oracle score IS accuracy
}

TEST(GreedyPartitionTest, NameEncodesBaseAndWeighting) {
  MajorityVote base;
  GenPartitionOptions opts;
  opts.base = &base;
  opts.weighting = WeightingFunction::kMax;
  GreedyPartitionAlgorithm greedy(opts);
  EXPECT_EQ(greedy.name(), "MajorityVoteGreedyPartition(Max)");
}

TEST(GreedyPartitionTest, OracleRequiresTruth) {
  MajorityVote base;
  GenPartitionOptions opts;
  opts.base = &base;
  opts.weighting = WeightingFunction::kOracle;
  GreedyPartitionAlgorithm greedy(opts);
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(4, &truth);
  EXPECT_FALSE(greedy.Discover(d).ok());
}

}  // namespace
}  // namespace tdac
