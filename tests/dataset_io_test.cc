#include "data/dataset_io.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset_builder.h"

namespace tdac {
namespace {

Dataset SmallDataset() {
  DatasetBuilder b;
  EXPECT_TRUE(b.AddClaim("s1", "o1", "a1", Value("red")).ok());
  EXPECT_TRUE(b.AddClaim("s1", "o1", "a2", Value(int64_t{7})).ok());
  EXPECT_TRUE(b.AddClaim("s2", "o1", "a1", Value("blue, dark")).ok());
  EXPECT_TRUE(b.AddClaim("s2", "o1", "a2", Value(2.5)).ok());
  return b.Build().MoveValue();
}

TEST(DatasetIoTest, CsvRoundTripPreservesClaims) {
  Dataset d = SmallDataset();
  std::string csv = DatasetToCsv(d);
  auto loaded = DatasetFromCsv(csv);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_claims(), d.num_claims());
  EXPECT_EQ(loaded->num_sources(), d.num_sources());
  EXPECT_EQ(loaded->num_attributes(), d.num_attributes());
  // Claims round-trip in order, values with kinds intact.
  for (size_t i = 0; i < d.num_claims(); ++i) {
    EXPECT_EQ(loaded->claim(i), d.claim(i)) << "claim " << i;
  }
  EXPECT_TRUE(loaded->claim(3).value.is_double());
}

// -0.0 and +0.0 are one value (equal under Value::operator==, same Hash())
// and share one dictionary id, so a claim reads back — and is exported —
// as the dictionary's representative: the spelling the store saw first.
TEST(DatasetIoTest, SignedZeroReadsBackAsTheFirstSpelling) {
  for (const double first : {0.0, -0.0}) {
    SCOPED_TRACE(std::signbit(first) ? "-0.0 first" : "+0.0 first");
    DatasetBuilder b;
    ASSERT_TRUE(b.AddClaim("s1", "o", "a", Value(first)).ok());
    ASSERT_TRUE(b.AddClaim("s2", "o", "a", Value(-first)).ok());
    Dataset d = b.Build().MoveValue();
    EXPECT_EQ(d.claim_value_ids()[0], d.claim_value_ids()[1]);
    for (size_t i = 0; i < d.num_claims(); ++i) {
      const Value value = d.claim(i).value;
      ASSERT_TRUE(value.is_double());
      EXPECT_EQ(std::signbit(value.AsDouble()), std::signbit(first));
      EXPECT_EQ(value, Value(-first));  // still equal to the other spelling
      EXPECT_EQ(value.Hash(), Value(-first).Hash());
    }
    const std::string zero = std::signbit(first) ? "-0" : "0";
    const std::string csv = DatasetToCsv(d);
    EXPECT_EQ(csv, "source,object,attribute,kind,value\ns1,o,a,double," + zero +
                       "\ns2,o,a,double," + zero + "\n");
    auto loaded = DatasetFromCsv(csv);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(DatasetToCsv(*loaded), csv);
    EXPECT_EQ(DatasetFingerprint(*loaded), DatasetFingerprint(d));
  }
}

TEST(DatasetIoTest, CsvHeaderPresent) {
  std::string csv = DatasetToCsv(SmallDataset());
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "source,object,attribute,kind,value");
}

TEST(DatasetIoTest, RejectsWrongFieldCount) {
  auto r = DatasetFromCsv("source,object,attribute,kind,value\na,b,c\n");
  EXPECT_FALSE(r.ok());
}

TEST(DatasetIoTest, RejectsUnknownKind) {
  auto r = DatasetFromCsv(
      "source,object,attribute,kind,value\ns,o,a,blob,x\n");
  EXPECT_FALSE(r.ok());
}

TEST(DatasetIoTest, FileRoundTrip) {
  Dataset d = SmallDataset();
  const std::string path = testing::TempDir() + "/tdac_ds.csv";
  ASSERT_TRUE(SaveDataset(d, path).ok());
  auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_claims(), d.num_claims());
  std::remove(path.c_str());
}

TEST(GroundTruthIoTest, RoundTrip) {
  Dataset d = SmallDataset();
  GroundTruth truth;
  truth.Set(0, 0, Value("red"));
  truth.Set(0, 1, Value(int64_t{7}));
  std::string csv = GroundTruthToCsv(truth, d);
  auto loaded = GroundTruthFromCsv(csv, d);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, truth);
}

TEST(GroundTruthIoTest, UnknownObjectFails) {
  Dataset d = SmallDataset();
  auto r = GroundTruthFromCsv(
      "object,attribute,kind,value\nmystery,a1,string,x\n", d);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(GroundTruthIoTest, UnknownAttributeFails) {
  Dataset d = SmallDataset();
  auto r = GroundTruthFromCsv(
      "object,attribute,kind,value\no1,mystery,string,x\n", d);
  EXPECT_FALSE(r.ok());
}

TEST(GroundTruthIoTest, FileRoundTrip) {
  Dataset d = SmallDataset();
  GroundTruth truth;
  truth.Set(0, 0, Value("red"));
  const std::string path = testing::TempDir() + "/tdac_truth.csv";
  ASSERT_TRUE(SaveGroundTruth(truth, d, path).ok());
  auto loaded = LoadGroundTruth(path, d);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, truth);
  std::remove(path.c_str());
}

TEST(SourceTrustIoTest, RoundTrip) {
  Dataset d = SmallDataset();
  std::vector<double> trust{0.875, 0.125};
  std::string csv = SourceTrustToCsv(trust, d);
  auto loaded = SourceTrustFromCsv(csv, d);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_NEAR((*loaded)[0], 0.875, 1e-9);
  EXPECT_NEAR((*loaded)[1], 0.125, 1e-9);
}

TEST(SourceTrustIoTest, UnknownSourceFails) {
  Dataset d = SmallDataset();
  auto r = SourceTrustFromCsv("source,trust\nmystery,0.5\n", d);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SourceTrustIoTest, MissingSourcesDefaultToZero) {
  Dataset d = SmallDataset();
  auto r = SourceTrustFromCsv("source,trust\ns2,0.75\n", d);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)[0], 0.0);
  EXPECT_DOUBLE_EQ((*r)[1], 0.75);
}

TEST(SourceTrustIoTest, FileRoundTrip) {
  Dataset d = SmallDataset();
  std::vector<double> trust{0.5, 1.0};
  const std::string path = testing::TempDir() + "/tdac_trust.csv";
  ASSERT_TRUE(SaveSourceTrust(trust, d, path).ok());
  auto loaded = LoadSourceTrust(path, d);
  ASSERT_TRUE(loaded.ok());
  EXPECT_NEAR((*loaded)[1], 1.0, 1e-9);
  std::remove(path.c_str());
}

TEST(GroundTruthTest, MergeFromOverwritesOnCollision) {
  GroundTruth a;
  a.Set(0, 0, Value("old"));
  a.Set(0, 1, Value("keep"));
  GroundTruth b;
  b.Set(0, 0, Value("new"));
  a.MergeFrom(b);
  EXPECT_EQ(*a.Get(0, 0), Value("new"));
  EXPECT_EQ(*a.Get(0, 1), Value("keep"));
  EXPECT_EQ(a.size(), 2u);
}

TEST(GroundTruthTest, SortedKeysAscending) {
  GroundTruth t;
  t.Set(1, 0, Value("x"));
  t.Set(0, 2, Value("y"));
  t.Set(0, 1, Value("z"));
  auto keys = t.SortedKeys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_LT(keys[0], keys[1]);
  EXPECT_LT(keys[1], keys[2]);
}

// Ingestion error format is part of the API surface: tooling and humans
// both grep for `<file kind> line N, field "F"`, so these pin it.

TEST(IngestionErrorsTest, ShortClaimRowNamesItsLine) {
  const std::string csv =
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,int,1\n"
      "s1,o1\n";
  auto r = DatasetFromCsv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "claim CSV line 3: expected 5 fields "
            "(source,object,attribute,kind,value), got 2");
}

TEST(IngestionErrorsTest, BadKindNamesLineAndField) {
  const std::string csv =
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,floatt,1.5\n";
  auto r = DatasetFromCsv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "claim CSV line 2, field \"kind\": unknown value kind 'floatt'");
}

TEST(IngestionErrorsTest, GarbledNumberNamesLineFieldAndText) {
  const std::string csv =
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,int,1\n"
      "s2,o1,a1,int,12x\n";
  auto r = DatasetFromCsv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "claim CSV line 3, field \"value\": not an integer: '12x'");
}

TEST(IngestionErrorsTest, NonFiniteDoubleIsRefused) {
  const std::string csv =
      "source,object,attribute,kind,value\n"
      "s1,o1,a1,double,nan\n";
  auto r = DatasetFromCsv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "claim CSV line 2, field \"value\": non-finite number: 'nan'");
}

TEST(IngestionErrorsTest, TruthFileErrorsCarryLinesToo) {
  DatasetBuilder b;
  ASSERT_TRUE(b.AddClaim("s", "obj", "attr", Value(int64_t{1})).ok());
  auto data = b.Build();
  ASSERT_TRUE(data.ok());
  const std::string csv =
      "object,attribute,kind,value\n"
      "obj,attr,int,1\n"
      "ghost,attr,int,2\n";
  auto r = GroundTruthFromCsv(csv, *data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(),
            "truth CSV line 3, field \"object\": unknown object 'ghost'");
}

TEST(IngestionErrorsTest, TrustFileErrorsCarryLinesToo) {
  DatasetBuilder b;
  ASSERT_TRUE(b.AddClaim("s", "obj", "attr", Value(int64_t{1})).ok());
  auto data = b.Build();
  ASSERT_TRUE(data.ok());
  const std::string csv = "source,trust\ns,0.5\ns,oops\n";
  auto r = SourceTrustFromCsv(csv, *data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "trust CSV line 3, field \"trust\": not a number: 'oops'");
}

}  // namespace
}  // namespace tdac
