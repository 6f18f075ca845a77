// Pins DatasetFingerprint to literal values. Checkpoint contexts embed the
// fingerprint (a resume against different data is detected by it) and the
// serving layer keys request coalescing on it, so a change to how the
// fingerprint is computed — or to what a built store reads back — silently
// orphans every existing checkpoint and splits coalesced requests. Any
// change to these literals must be deliberate.
//
// Registered serially and under TDAC_THREADS=8.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/dataset_builder.h"
#include "data/dataset_view.h"
#include "gen/exam.h"
#include "gen/synthetic.h"

namespace tdac {
namespace {

Dataset Exam124() {
  ExamConfig config;
  config.num_questions = 124;
  auto data = GenerateExam(config);
  EXPECT_TRUE(data.ok()) << data.status();
  return std::move(data->dataset);
}

Dataset Ds2Seed7() {
  auto config = PaperSyntheticConfig(2, /*seed=*/7);
  EXPECT_TRUE(config.ok()) << config.status();
  auto data = GenerateSynthetic(*config);
  EXPECT_TRUE(data.ok()) << data.status();
  return std::move(data->dataset);
}

/// Strings, ints and doubles on one store, including a value spelled both
/// `0.0` and `-0.0` (equal under Value::operator==, one dictionary id) and
/// an int and a double of the same magnitude (distinct values).
Dataset MixedKinds() {
  DatasetBuilder b;
  const auto add = [&b](const char* s, const char* o, const char* a,
                        Value v) {
    EXPECT_TRUE(b.AddClaim(s, o, a, std::move(v)).ok());
  };
  add("s1", "o1", "name", Value("Zürich"));
  add("s2", "o1", "name", Value("Zurich"));
  add("s3", "o1", "name", Value("Zürich"));
  add("s1", "o1", "count", Value(int64_t{2}));
  add("s2", "o1", "count", Value(2.0));
  add("s1", "o2", "delta", Value(0.0));
  add("s2", "o2", "delta", Value(-0.0));
  add("s3", "o2", "delta", Value(0.25));
  add("s1", "o2", "name", Value(""));
  add("s3", "o2", "count", Value(int64_t{-7}));
  auto built = b.Build();
  EXPECT_TRUE(built.ok()) << built.status();
  return built.MoveValue();
}

TEST(DatasetFingerprintTest, Exam124IsPinned) {
  EXPECT_EQ(DatasetFingerprint(Exam124()), 0x08220670ab95ad9aull);
}

TEST(DatasetFingerprintTest, Ds2IsPinned) {
  EXPECT_EQ(DatasetFingerprint(Ds2Seed7()), 0x4085809bb14d0fd0ull);
}

TEST(DatasetFingerprintTest, MixedKindsArePinned) {
  EXPECT_EQ(DatasetFingerprint(MixedKinds()), 0xd96a77fc17c9e7fbull);
}

TEST(DatasetFingerprintTest, AttributeAxisViewIsPinned) {
  const Dataset d = Ds2Seed7();
  const DatasetView view(d, std::vector<AttributeId>{0, 2, 3});
  EXPECT_EQ(DatasetFingerprint(view), 0x36e75304cfbafa00ull);
}

TEST(DatasetFingerprintTest, ObjectAxisViewIsPinned) {
  const Dataset d = Ds2Seed7();
  std::vector<ObjectId> objects;
  for (ObjectId o = 0; o < d.num_objects(); o += 3) objects.push_back(o);
  const DatasetView view(d, DatasetView::ObjectAxis{}, objects);
  EXPECT_EQ(DatasetFingerprint(view), 0x807f45af6fff4312ull);
}

}  // namespace
}  // namespace tdac
