#include "tdac/truth_vectors.h"

#include <gtest/gtest.h>

#include "td/majority_vote.h"
#include "test_util.h"

namespace tdac {
namespace {

using testutil::BuildDataset;
using testutil::ClaimSpec;

TEST(TruthVectorsTest, DimensionsAreObjectsTimesSources) {
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(4, &truth);  // 3 sources, 1 object
  auto m = BuildTruthVectors(d, truth);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->attributes.size(), 4u);
  EXPECT_EQ(m->dimension(), 3u);  // 1 object x 3 sources
}

TEST(TruthVectorsTest, Eq1SetsOneOnlyForMatchingClaims) {
  // good1/good2 match the truth, bad never does.
  GroundTruth truth;
  Dataset d = testutil::TwoGoodOneBad(2, &truth);
  auto m = BuildTruthVectors(d, truth);
  ASSERT_TRUE(m.ok());
  for (size_t r = 0; r < m->vectors.size(); ++r) {
    EXPECT_DOUBLE_EQ(m->vectors[r][0], 1.0);  // good1
    EXPECT_DOUBLE_EQ(m->vectors[r][1], 1.0);  // good2
    EXPECT_DOUBLE_EQ(m->vectors[r][2], 0.0);  // bad
  }
}

TEST(TruthVectorsTest, MissingClaimIsZeroWithZeroMask) {
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 1},
      {"s1", "o", "b", 2},  // s2 does not cover b
  });
  GroundTruth truth;
  truth.Set(0, 0, Value(int64_t{1}));
  truth.Set(0, 1, Value(int64_t{2}));
  auto m = BuildTruthVectors(d, truth);
  ASSERT_TRUE(m.ok());
  // Row for attribute b: s1 correct (mask 1), s2 missing (mask 0, value 0).
  EXPECT_DOUBLE_EQ(m->vectors[1][0], 1.0);
  EXPECT_EQ(m->masks[1][0], 1);
  EXPECT_DOUBLE_EQ(m->vectors[1][1], 0.0);
  EXPECT_EQ(m->masks[1][1], 0);
}

TEST(TruthVectorsTest, WrongClaimIsZeroWithOneMask) {
  Dataset d = BuildDataset({{"s1", "o", "a", 5}});
  GroundTruth truth;
  truth.Set(0, 0, Value(int64_t{7}));  // claim is wrong
  auto m = BuildTruthVectors(d, truth);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->vectors[0][0], 0.0);
  EXPECT_EQ(m->masks[0][0], 1);
}

TEST(TruthVectorsTest, BaseAlgorithmOverloadUsesItsPrediction) {
  // Majority elects 1 for attribute a; the dissenting claim gets 0.
  Dataset d = BuildDataset({
      {"s1", "o", "a", 1},
      {"s2", "o", "a", 1},
      {"s3", "o", "a", 9},
  });
  MajorityVote base;
  auto m = BuildTruthVectors(base, d);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->vectors[0][0], 1.0);
  EXPECT_DOUBLE_EQ(m->vectors[0][1], 1.0);
  EXPECT_DOUBLE_EQ(m->vectors[0][2], 0.0);
}

TEST(TruthVectorsTest, CorrelatedAttributesHaveCloseVectors) {
  // Attributes a,b: s1/s2 right, s3 wrong. Attributes c,d: s3 right,
  // s1/s2 wrong. Truth vectors must be identical within each pair and far
  // across pairs (Hamming 3 of 3).
  std::vector<ClaimSpec> specs;
  for (const char* attr : {"a", "b"}) {
    specs.push_back({"s1", "o", attr, 1});
    specs.push_back({"s2", "o", attr, 1});
    specs.push_back({"s3", "o", attr, 2});
  }
  for (const char* attr : {"c", "d"}) {
    specs.push_back({"s1", "o", attr, 3});
    specs.push_back({"s2", "o", attr, 4});
    specs.push_back({"s3", "o", attr, 5});
  }
  Dataset d = BuildDataset(specs);
  GroundTruth truth;
  truth.Set(0, 0, Value(int64_t{1}));
  truth.Set(0, 1, Value(int64_t{1}));
  truth.Set(0, 2, Value(int64_t{5}));
  truth.Set(0, 3, Value(int64_t{5}));
  auto m = BuildTruthVectors(d, truth);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->vectors[0], m->vectors[1]);
  EXPECT_EQ(m->vectors[2], m->vectors[3]);
  EXPECT_NE(m->vectors[0], m->vectors[2]);
}

TEST(TruthVectorsTest, EmptyDatasetRejected) {
  Dataset d;
  GroundTruth truth;
  EXPECT_FALSE(BuildTruthVectors(d, truth).ok());
}

// Object-axis rows are the transpose of the attribute-axis rows: cell
// (object o, attribute a, source s) holds the same bit on both axes, for the
// vectors and the masks alike. kernel_golden_test pins both matrices' bits.
TEST(TruthVectorsTest, ObjectAxisIsTheTranspose) {
  std::vector<ClaimSpec> specs;
  const char* objects[] = {"o1", "o2", "o3"};
  const char* attrs[] = {"a", "b"};
  for (int o = 0; o < 3; ++o) {
    for (int a = 0; a < 2; ++a) {
      specs.push_back({"s1", objects[o], attrs[a], 10 * o + a});
      if ((o + a) % 2 == 0) specs.push_back({"s2", objects[o], attrs[a], 7});
      specs.push_back({"s3", objects[o], attrs[a], o == 1 ? 10 * o + a : 9});
    }
  }
  Dataset d = BuildDataset(specs);
  GroundTruth truth;
  for (int o = 0; o < 3; ++o) {
    for (int a = 0; a < 2; ++a) truth.Set(o, a, Value(int64_t{10 * o + a}));
  }
  const size_t num_sources = 3;
  auto by_attr = BuildTruthVectors(d, truth);
  auto by_object = BuildTruthVectors(d, truth, PartitionAxis::kObjects);
  ASSERT_TRUE(by_attr.ok());
  ASSERT_TRUE(by_object.ok());
  EXPECT_EQ(by_object->objects, (std::vector<ObjectId>{0, 1, 2}));
  EXPECT_TRUE(by_object->attributes.empty());
  EXPECT_TRUE(by_attr->objects.empty());
  EXPECT_EQ(by_object->dimension(), 2 * num_sources);
  for (size_t o = 0; o < 3; ++o) {
    for (size_t a = 0; a < 2; ++a) {
      for (size_t src = 0; src < num_sources; ++src) {
        const size_t attr_col = o * num_sources + src;
        const size_t obj_col = a * num_sources + src;
        EXPECT_EQ(by_object->vectors[o][obj_col],
                  by_attr->vectors[a][attr_col]);
        EXPECT_EQ(by_object->masks[o][obj_col], by_attr->masks[a][attr_col]);
      }
    }
  }
  // s1 always matches; s2 (value 7) never does; s3 only on object o2.
  EXPECT_EQ(by_object->vectors[1],
            (FeatureVector{1.0, 0.0, 1.0, 1.0, 0.0, 1.0}));
}

}  // namespace
}  // namespace tdac
