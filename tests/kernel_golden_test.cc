// Golden gate for the truth-discovery kernels: grouping, the vote tallies,
// every algorithm's iteration and the truth-vector fill, over a fixed
// corpus. Each run's SerializeTruthDiscoveryResult (doubles as IEEE-754
// hex, predictions in sorted key order) is byte-compared against the
// checked-in tests/golden/kernel_paths.txt, so "close" can never pass for
// "equal".
//
// Corpus:
//   1. every registered algorithm × five synthetic shapes (skewed, sparse,
//      single-source, unicode strings, mixed value kinds) × seeds 1..3;
//   2. every algorithm on two attribute-restricted DatasetViews;
//   3. TD-AC over Accu end to end;
//   4. MajorityVote and Accu on every fault-injection corruption mode that
//      survives checked ingestion;
//   5. TD-AC checkpoint/resume: the resumed run must reproduce the
//      uninterrupted run's bytes;
//   6. MajorityVote on a near-duplicate string scenario;
//   7. the attribute- and object-axis truth vectors and masks of a small
//      two-axis fixture.
//
// Registered serially and under TDAC_THREADS=8. To regenerate after an
// *intentional* behavior change, run with TDAC_UPDATE_GOLDEN=1 in the
// environment and commit the diff.

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.h"
#include "common/io.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/dataset.h"
#include "data/dataset_builder.h"
#include "data/dataset_io.h"
#include "data/dataset_view.h"
#include "gen/corrupt.h"
#include "gen/scenario.h"
#include "gen/synthetic.h"
#include "td/majority_vote.h"
#include "td/registry.h"
#include "td/truth_discovery.h"
#include "tdac/tdac.h"
#include "tdac/truth_vectors.h"
#include "test_util.h"

namespace tdac {
namespace {

constexpr char kGoldenName[] = "kernel_paths.txt";

// ---------------------------------------------------------------------------
// Synthetic shapes
// ---------------------------------------------------------------------------

/// Skewed coverage: source 0 claims every item, the tail of sources gets
/// exponentially sparser, values are small ints (heavy vote collisions).
Dataset SkewedDataset(uint64_t seed) {
  Rng rng(seed);
  DatasetBuilder b;
  const int sources = 8;
  const int objects = 12;
  const int attrs = 3;
  for (int s = 0; s < sources; ++s) b.AddSource(Numbered("s", s));
  for (int o = 0; o < objects; ++o) b.AddObject(Numbered("o", o));
  for (int a = 0; a < attrs; ++a) b.AddAttribute(Numbered("a", a));
  for (int s = 0; s < sources; ++s) {
    const double keep = s == 0 ? 1.0 : 1.0 / static_cast<double>(1 << s);
    for (int o = 0; o < objects; ++o) {
      for (int a = 0; a < attrs; ++a) {
        if (s == 0 || rng.NextBernoulli(keep)) {
          EXPECT_TRUE(b.AddClaim(s, o, a, Value(rng.NextInt(0, 3))).ok());
        }
      }
    }
  }
  return b.Build().MoveValue();
}

/// Sparse coverage (~15%) over a wide item grid, double values drawn from
/// a tiny set so items still conflict.
Dataset SparseDataset(uint64_t seed) {
  Rng rng(seed);
  DatasetBuilder b;
  const int sources = 6;
  const int objects = 20;
  const int attrs = 5;
  for (int s = 0; s < sources; ++s) b.AddSource(Numbered("s", s));
  for (int o = 0; o < objects; ++o) b.AddObject(Numbered("o", o));
  for (int a = 0; a < attrs; ++a) b.AddAttribute(Numbered("a", a));
  size_t added = 0;
  for (int s = 0; s < sources; ++s) {
    for (int o = 0; o < objects; ++o) {
      for (int a = 0; a < attrs; ++a) {
        if (rng.NextBernoulli(0.15)) {
          EXPECT_TRUE(
              b.AddClaim(s, o, a,
                         Value(0.5 * static_cast<double>(rng.NextInt(0, 4))))
                  .ok());
          ++added;
        }
      }
    }
  }
  if (added == 0) {
    EXPECT_TRUE(b.AddClaim(0, 0, 0, Value(1.5)).ok());
  }
  return b.Build().MoveValue();
}

/// Degenerate corroboration: a single source claims everything (every
/// conflict set is a singleton; trust loops see one voter).
Dataset SingleSourceDataset(uint64_t seed) {
  Rng rng(seed);
  DatasetBuilder b;
  b.AddSource("lonely");
  for (int o = 0; o < 10; ++o) b.AddObject(Numbered("o", o));
  for (int a = 0; a < 4; ++a) b.AddAttribute(Numbered("a", a));
  for (int o = 0; o < 10; ++o) {
    for (int a = 0; a < 4; ++a) {
      EXPECT_TRUE(b.AddClaim(0, o, a, Value(rng.NextInt(0, 9))).ok());
    }
  }
  return b.Build().MoveValue();
}

/// String values exercising the dictionary arena: multi-byte UTF-8,
/// empty strings, heavy duplication, and strings sharing long prefixes.
Dataset UnicodeStringsDataset(uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> pool = {
      "",          "π≈3.14159",  "Zürich",       "Zürich ",
      "ναί",       "مرحبا",      "🙂🙃",          "prefix-prefix-a",
      "prefix-prefix-b", "\t tab", "München", "naïve"};
  DatasetBuilder b;
  const int sources = 7;
  const int objects = 9;
  const int attrs = 3;
  for (int s = 0; s < sources; ++s) b.AddSource(Numbered("s", s));
  for (int o = 0; o < objects; ++o) b.AddObject(Numbered("obj", o));
  for (int a = 0; a < attrs; ++a) b.AddAttribute(Numbered("attr", a));
  for (int s = 0; s < sources; ++s) {
    for (int o = 0; o < objects; ++o) {
      for (int a = 0; a < attrs; ++a) {
        if (rng.NextBernoulli(0.7)) {
          const auto pick = rng.NextBounded(pool.size());
          EXPECT_TRUE(b.AddClaim(s, o, a, Value(pool[pick])).ok());
        }
      }
    }
  }
  if (b.num_claims() == 0) {
    EXPECT_TRUE(b.AddClaim(0, 0, 0, Value(pool[1])).ok());
  }
  return b.Build().MoveValue();
}

/// Mixed kinds on one dataset: some attributes carry strings, some ints,
/// some doubles — and one attribute mixes all three kinds on the same
/// item, where only the dictionary's kind-aware ordering keeps the
/// tie-break deterministic.
Dataset MixedKindsDataset(uint64_t seed) {
  Rng rng(seed);
  DatasetBuilder b;
  const int sources = 6;
  const int objects = 8;
  for (int s = 0; s < sources; ++s) b.AddSource(Numbered("s", s));
  for (int o = 0; o < objects; ++o) b.AddObject(Numbered("o", o));
  b.AddAttribute("str");
  b.AddAttribute("int");
  b.AddAttribute("dbl");
  b.AddAttribute("mixed");
  for (int s = 0; s < sources; ++s) {
    for (int o = 0; o < objects; ++o) {
      if (rng.NextBernoulli(0.8)) {
        EXPECT_TRUE(
            b.AddClaim(s, o, 0, Value(Numbered("v", rng.NextInt(0, 2))))
                .ok());
      }
      if (rng.NextBernoulli(0.8)) {
        EXPECT_TRUE(b.AddClaim(s, o, 1, Value(rng.NextInt(-2, 2))).ok());
      }
      if (rng.NextBernoulli(0.8)) {
        EXPECT_TRUE(
            b.AddClaim(s, o, 2,
                       Value(0.25 * static_cast<double>(rng.NextInt(0, 3))))
                .ok());
      }
      if (rng.NextBernoulli(0.8)) {
        const int kind = static_cast<int>(rng.NextBounded(3));
        Value v = kind == 0   ? Value("2")
                  : kind == 1 ? Value(int64_t{2})
                              : Value(2.0);
        EXPECT_TRUE(b.AddClaim(s, o, 3, std::move(v)).ok());
      }
    }
  }
  return b.Build().MoveValue();
}

Dataset ShapeDataset(const std::string& shape, uint64_t seed) {
  if (shape == "skewed") return SkewedDataset(seed);
  if (shape == "sparse") return SparseDataset(seed);
  if (shape == "single_source") return SingleSourceDataset(seed);
  if (shape == "unicode") return UnicodeStringsDataset(seed);
  return MixedKindsDataset(seed);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// One run's record: a title line, then the serialized result — or the
/// status code when the run was refused.
void AppendRun(const std::string& title,
               const Result<TruthDiscoveryResult>& result, std::string* out) {
  *out += "== " + title + "\n";
  if (!result.ok()) {
    *out += "error " + std::to_string(static_cast<int>(result.status().code())) +
            "\n";
    return;
  }
  *out += SerializeTruthDiscoveryResult(*result);
}

void AppendMatrix(const std::string& title, const TruthVectorMatrix& m,
                  std::string* out) {
  std::ostringstream os;
  os << "== " << title << "\nrows";
  for (int32_t id : m.attributes.empty() ? m.objects : m.attributes) {
    os << ' ' << id;
  }
  os << '\n';
  for (size_t r = 0; r < m.vectors.size(); ++r) {
    os << "v";
    for (double x : m.vectors[r]) os << ' ' << HexDouble(x);
    os << "\nm ";
    for (uint8_t bit : m.masks[r]) os << static_cast<int>(bit);
    os << '\n';
  }
  *out += os.str();
}

// ---------------------------------------------------------------------------
// Legs
// ---------------------------------------------------------------------------

void AllAlgorithmsTimesShapes(std::string* out) {
  for (const std::string& name : RegisteredAlgorithms()) {
    auto algo = MakeAlgorithm(name);
    EXPECT_TRUE(algo.ok()) << name;
    if (!algo.ok()) continue;
    for (const char* shape :
         {"skewed", "sparse", "single_source", "unicode", "mixed"}) {
      for (uint64_t seed : {1ull, 2ull, 3ull}) {
        Dataset d = ShapeDataset(shape, seed);
        AppendRun(name + "/" + shape + Numbered("/seed", seed),
                  (*algo)->Discover(d), out);
      }
    }
  }
}

void AttributeRestrictedViews(std::string* out) {
  Dataset d = SparseDataset(11);
  // Every-other-attribute view plus a single-attribute view.
  std::vector<AttributeId> half;
  for (AttributeId a = 0; a < d.num_attributes(); a += 2) half.push_back(a);
  DatasetView half_view(d, half);
  DatasetView one_view(d, std::vector<AttributeId>{0});
  for (const std::string& name : RegisteredAlgorithms()) {
    auto algo = MakeAlgorithm(name);
    EXPECT_TRUE(algo.ok()) << name;
    if (!algo.ok()) continue;
    AppendRun(name + "/half-view", (*algo)->Discover(half_view), out);
    AppendRun(name + "/one-attribute-view", (*algo)->Discover(one_view), out);
  }
}

void TdacEndToEnd(std::string* out) {
  SyntheticConfig config;
  config.num_objects = 25;
  config.num_sources = 6;
  config.planted_groups = {{0, 1}, {2, 3}, {4}};
  config.reliability_levels = {0.9, 0.3};
  config.seed = 5;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok()) << data.status();
  auto base = MakeAlgorithm("Accu");
  ASSERT_TRUE(base.ok());
  TdacOptions opts;
  opts.base = base->get();
  AppendRun("tdac/end-to-end", Tdac(opts).Discover(data->dataset), out);
}

void CorruptionCorpus(std::string* out) {
  auto config = PaperSyntheticConfig(1, /*seed=*/7);
  ASSERT_TRUE(config.ok()) << config.status();
  config->num_objects = 20;
  auto data = GenerateSynthetic(*config);
  ASSERT_TRUE(data.ok()) << data.status();
  const std::string clean = DatasetToCsv(data->dataset);
  MajorityVote vote;
  auto accu = MakeAlgorithm("Accu");
  ASSERT_TRUE(accu.ok());
  for (CorruptionMode mode : AllCorruptionModes()) {
    CorruptionOptions options;
    options.mode = mode;
    const std::string context =
        "corrupt/" + std::string(CorruptionModeName(mode));
    Result<Dataset> corrupted = DatasetFromCsv(CorruptClaimCsv(clean, options));
    if (!corrupted.ok()) {
      *out += "== " + context + "\nrefused\n";
      continue;
    }
    AppendRun(context + "/MajorityVote", vote.Discover(*corrupted), out);
    AppendRun(context + "/Accu", (*accu)->Discover(*corrupted), out);
  }
}

void CheckpointResume(std::string* out) {
  const std::string dir = testutil::ProcessTempDir() + "/kernel_golden";
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  SyntheticConfig config;
  config.num_objects = 20;
  config.num_sources = 5;
  config.planted_groups = {{0, 1}, {2}};
  config.reliability_levels = {0.9, 0.4};
  config.seed = 13;
  auto data = GenerateSynthetic(config);
  ASSERT_TRUE(data.ok()) << data.status();
  auto base = MakeAlgorithm("Accu");
  ASSERT_TRUE(base.ok());

  TdacOptions plain;
  plain.base = base->get();
  Result<TruthDiscoveryResult> uninterrupted = Tdac(plain).Discover(data->dataset);

  CheckpointOptions ckpt_options;
  ckpt_options.dir = dir;
  ckpt_options.interval_ms = 0.0;
  // The first run populates the slots...
  {
    Checkpointer store(ckpt_options);
    TdacOptions opts = plain;
    opts.checkpointer = &store;
    ASSERT_TRUE(Tdac(opts).Discover(data->dataset).ok());
  }
  // ...the second resumes from them; replayed state must splice into the
  // kernels without perturbing a single bit.
  ckpt_options.resume = true;
  Checkpointer resume(ckpt_options);
  TdacOptions opts = plain;
  opts.checkpointer = &resume;
  Result<TruthDiscoveryResult> resumed = Tdac(opts).Discover(data->dataset);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(SerializeTruthDiscoveryResult(*resumed),
            SerializeTruthDiscoveryResult(*uninterrupted));
  AppendRun("checkpoint/uninterrupted", uninterrupted, out);
  AppendRun("checkpoint/resumed", resumed, out);
}

void NearDuplicateScenario(std::string* out) {
  ScenarioSpec spec;
  spec.num_objects = 40;
  spec.num_attributes = 4;
  spec.num_sources = 12;
  spec.seed = 20260808;
  spec.name = "soa-vs-legacy";
  spec.adversary = AdversaryMode::kNearDuplicate;
  auto generated = GenerateScenario(spec);
  ASSERT_TRUE(generated.ok()) << generated.status();
  AppendRun("scenario/near-duplicate/MajorityVote",
            MajorityVote().Discover(generated->dataset), out);
}

void TwoAxisTruthVectors(std::string* out) {
  std::vector<testutil::ClaimSpec> specs;
  const char* objects[] = {"o1", "o2", "o3"};
  const char* attrs[] = {"a", "b"};
  for (int o = 0; o < 3; ++o) {
    for (int a = 0; a < 2; ++a) {
      specs.push_back({"s1", objects[o], attrs[a], 10 * o + a});
      if ((o + a) % 2 == 0) specs.push_back({"s2", objects[o], attrs[a], 7});
      specs.push_back({"s3", objects[o], attrs[a], o == 1 ? 10 * o + a : 9});
    }
  }
  Dataset d = testutil::BuildDataset(specs);
  GroundTruth truth;
  for (int o = 0; o < 3; ++o) {
    for (int a = 0; a < 2; ++a) truth.Set(o, a, Value(int64_t{10 * o + a}));
  }
  auto by_attr = BuildTruthVectors(d, truth);
  auto by_object = BuildTruthVectors(d, truth, PartitionAxis::kObjects);
  ASSERT_TRUE(by_attr.ok()) << by_attr.status();
  ASSERT_TRUE(by_object.ok()) << by_object.status();
  AppendMatrix("truth-vectors/attributes", *by_attr, out);
  AppendMatrix("truth-vectors/objects", *by_object, out);
}

std::string RunAll() {
  std::string out;
  AllAlgorithmsTimesShapes(&out);
  AttributeRestrictedViews(&out);
  TdacEndToEnd(&out);
  CorruptionCorpus(&out);
  CheckpointResume(&out);
  NearDuplicateScenario(&out);
  TwoAxisTruthVectors(&out);
  return out;
}

TEST(KernelGoldenTest, EveryKernelPathMatchesGolden) {
  const std::string golden_path =
      std::string(TDAC_GOLDEN_DIR) + "/" + kGoldenName;
  const std::string actual = RunAll();
  ASSERT_FALSE(actual.empty());
  const char* update = std::getenv("TDAC_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream file(golden_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write golden " << golden_path;
    file << actual;
    GTEST_SKIP() << "golden regenerated: " << golden_path;
  }
  std::ifstream file(golden_path, std::ios::binary);
  ASSERT_TRUE(file.good()) << "missing golden file " << golden_path;
  std::ostringstream expected;
  expected << file.rdbuf();
  if (actual == expected.str()) return;
  // Point at the first diverging run rather than dumping both texts.
  const std::string& want = expected.str();
  const size_t at = static_cast<size_t>(
      std::mismatch(actual.begin(), actual.end(), want.begin(), want.end())
          .first -
      actual.begin());
  const size_t title = actual.rfind("== ", at);
  FAIL() << "output diverges from " << kGoldenName << " at byte " << at
         << " in run \""
         << (title == std::string::npos
                 ? std::string("<start>")
                 : actual.substr(title, actual.find('\n', title) - title))
         << "\"\nrerun with TDAC_UPDATE_GOLDEN=1 only if the change is "
            "intentional";
}

}  // namespace
}  // namespace tdac
