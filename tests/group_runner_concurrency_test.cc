// Hammers GroupRunner's memoized Run from many threads on overlapping
// groups: the once-latch memo must evaluate every distinct group exactly
// once (no duplicate base runs, no lost entries), and the hashed vector
// key must never collapse two distinct groups into one entry.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "data/dataset_builder.h"
#include "partition/attribute_partition.h"
#include "partition/group_runner.h"
#include "td/majority_vote.h"
#include "td/truth_discovery.h"

namespace tdac {
namespace {

/// A base algorithm that counts its Discover invocations; any duplicate
/// evaluation of a memoized group shows up as an extra call.
class CountingBase : public TruthDiscovery {
 public:
  std::string_view name() const override { return "CountingMV"; }

  int calls() const { return calls_.load(std::memory_order_acquire); }

 protected:
  Result<TruthDiscoveryResult> DiscoverGuarded(
      const DatasetLike& data, const RunGuard& guard) const override {
    calls_.fetch_add(1, std::memory_order_acq_rel);
    return inner_.Discover(data, guard);
  }

 private:
  MajorityVote inner_;
  mutable std::atomic<int> calls_{0};
};

/// A dataset with `num_attrs` attributes, three sources, and a handful of
/// objects; every attribute carries claims so no group restriction is
/// empty.
Dataset MakeDataset(int num_attrs) {
  DatasetBuilder builder;
  for (int o = 0; o < 4; ++o) {
    for (int a = 0; a < num_attrs; ++a) {
      const std::string object = Numbered("o", o);
      const std::string attr = Numbered("a", a);
      EXPECT_TRUE(
          builder.AddClaim("good1", object, attr, Value(int64_t{100 + a}))
              .ok());
      EXPECT_TRUE(
          builder.AddClaim("good2", object, attr, Value(int64_t{100 + a}))
              .ok());
      EXPECT_TRUE(
          builder.AddClaim("bad", object, attr, Value(int64_t{200 + a})).ok());
    }
  }
  auto result = builder.Build();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.MoveValue();
}

TEST(GroupRunnerConcurrencyTest, HammeredMemoEvaluatesEachGroupOnce) {
  const int kNumAttrs = 12;
  Dataset data = MakeDataset(kNumAttrs);
  CountingBase base;
  GroupRunner runner(&base, &data, /*threads=*/1);

  // Overlapping groups: all singletons, all adjacent pairs, all adjacent
  // triples — attributes appear in up to three distinct groups.
  std::vector<std::vector<AttributeId>> groups;
  for (int a = 0; a < kNumAttrs; ++a) groups.push_back({a});
  for (int a = 0; a + 1 < kNumAttrs; ++a) groups.push_back({a, a + 1});
  for (int a = 0; a + 2 < kNumAttrs; ++a) groups.push_back({a, a + 1, a + 2});
  const size_t distinct = groups.size();

  const int kThreads = 8;
  const int kRoundsPerThread = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      // Each thread replays the whole group list several times in its own
      // shuffled order, so every group is requested ~40 times total.
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int round = 0; round < kRoundsPerThread; ++round) {
        std::vector<size_t> order(groups.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.Shuffle(&order);
        for (size_t idx : order) {
          auto run = runner.Run(groups[idx]);
          if (!run.ok() || run.value() == nullptr ||
              run.value()->predicted.empty()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  // No duplicate evaluation, no lost memo entries.
  EXPECT_EQ(runner.groups_evaluated(), distinct);
  EXPECT_EQ(base.calls(), static_cast<int>(distinct));
}

TEST(GroupRunnerConcurrencyTest, RepeatedRunsShareOneEntry) {
  Dataset data = MakeDataset(4);
  CountingBase base;
  GroupRunner runner(&base, &data);
  auto first = runner.Run({0, 1});
  auto second = runner.Run({0, 1});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());  // same memo entry
  EXPECT_EQ(runner.groups_evaluated(), 1u);
  EXPECT_EQ(base.calls(), 1);
}

TEST(GroupRunnerConcurrencyTest, ConcurrentScoresShareMemoAcrossPartitions) {
  const int kNumAttrs = 8;
  Dataset data = MakeDataset(kNumAttrs);
  CountingBase base;
  GroupRunner runner(&base, &data, /*threads=*/4);

  // Three partitions sharing several groups.
  auto p1 = AttributePartition::FromGroups({{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  auto p2 = AttributePartition::FromGroups({{0, 1}, {2, 3}, {4, 5, 6, 7}});
  auto p3 = AttributePartition::FromGroups({{0, 1, 2, 3}, {4, 5}, {6, 7}});
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(p3.ok());
  // Distinct groups overall: {0,1},{2,3},{4,5},{6,7},{4..7},{0..3} = 6.
  const size_t distinct = 6;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    const AttributePartition* partition =
        t % 3 == 0 ? &p1.value() : (t % 3 == 1 ? &p2.value() : &p3.value());
    threads.emplace_back([&, partition]() {
      for (int round = 0; round < 3; ++round) {
        auto score =
            runner.Score(*partition, WeightingFunction::kAvg, nullptr);
        if (!score.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(runner.groups_evaluated(), distinct);
  EXPECT_EQ(base.calls(), static_cast<int>(distinct));
}

// Regression for the GroupKey bugfix: the old flattened-string key could
// only stay collision-free by relying on its delimiter; keys built from
// the id lists themselves are collision-free by construction. These pairs
// are exactly the ones a delimiter-less flattening ("1"+"23" == "12"+"3")
// would collapse.
TEST(GroupRunnerConcurrencyTest, DistinctGroupsNeverCollide) {
  const int kNumAttrs = 24;
  Dataset data = MakeDataset(kNumAttrs);
  CountingBase base;
  GroupRunner runner(&base, &data);

  const std::vector<std::vector<AttributeId>> adversarial = {
      {1, 23}, {12, 3}, {1, 2}, {12}, {2, 21}, {22, 1}, {11, 2}, {1, 12}};
  for (const auto& group : adversarial) {
    std::vector<AttributeId> sorted = group;
    std::sort(sorted.begin(), sorted.end());
    auto run = runner.Run(sorted);
    ASSERT_TRUE(run.ok());
  }
  // Every adversarial group got its own memo entry and its own base run.
  EXPECT_EQ(runner.groups_evaluated(), adversarial.size());
  EXPECT_EQ(base.calls(), static_cast<int>(adversarial.size()));

  // And the per-group results reflect the actual group contents: the
  // restriction of {12} has 1 attribute's items, {1, 2} has 2.
  auto narrow = runner.Run({12});
  auto wide = runner.Run({1, 2});
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(narrow.value()->predicted.size(), 4u);  // 4 objects x 1 attr
  EXPECT_EQ(wide.value()->predicted.size(), 8u);    // 4 objects x 2 attrs
}

}  // namespace
}  // namespace tdac
