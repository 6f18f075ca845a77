// Golden gate for the partition-then-discover pipeline on both axes.
//
// Runs TD-AC (dense k-means, sparse-aware, agglomerative, two refinement
// rounds) and TD-OC (default options, max_k=4) over Accu on three datasets
// — DS2 at 240 objects, a 3-region object-correlated dataset, and exam124 —
// and byte-compares, per run, the serialized result, the chosen k, the
// silhouette sweep (as IEEE-754 hex) and the groups against the checked-in
// golden in tests/golden/. Registered serially and under TDAC_THREADS=8:
// the sweep and group fan-out must reproduce the serial bytes.
//
// To regenerate after an *intentional* behavior change, run with
// TDAC_UPDATE_GOLDEN=1 in the environment and commit the diff.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/checkpoint.h"
#include "gen/exam.h"
#include "gen/synthetic.h"
#include "td/accu.h"
#include "tdac/tdac.h"
#include "tdac/tdoc.h"

namespace tdac {
namespace {

constexpr char kGoldenName[] = "partition_pipeline.txt";

struct NamedDataset {
  std::string name;
  Dataset dataset;
};

std::vector<NamedDataset> Datasets() {
  std::vector<NamedDataset> out;
  auto ds2 = PaperSyntheticConfig(2, /*seed=*/42);
  EXPECT_TRUE(ds2.ok()) << ds2.status();
  ds2->num_objects = 240;
  auto ds2_data = GenerateSynthetic(*ds2);
  EXPECT_TRUE(ds2_data.ok()) << ds2_data.status();
  out.push_back({"ds2_240", std::move(ds2_data->dataset)});

  ObjectCorrelatedConfig regions;
  regions.planted_groups.assign(3, {});
  for (int o = 0; o < 120; ++o) {
    regions.planted_groups[static_cast<size_t>(o / 40)].push_back(o);
  }
  regions.seed = 3;
  auto regions_data = GenerateObjectCorrelated(regions);
  EXPECT_TRUE(regions_data.ok()) << regions_data.status();
  out.push_back({"regions3_120", std::move(regions_data->dataset)});

  ExamConfig exam;
  exam.num_questions = 124;
  auto exam_data = GenerateExam(exam);
  EXPECT_TRUE(exam_data.ok()) << exam_data.status();
  out.push_back({"exam124", std::move(exam_data->dataset)});
  return out;
}

std::string FormatRun(const std::string& title, int chosen_k,
                      double silhouette,
                      const std::vector<std::pair<int, double>>& by_k,
                      bool fell_back,
                      const std::vector<std::vector<int32_t>>& groups,
                      const TruthDiscoveryResult& result) {
  std::ostringstream out;
  out << "== " << title << "\n";
  out << "chosen_k " << chosen_k << " fell_back " << (fell_back ? 1 : 0)
      << " silhouette " << HexDouble(silhouette) << "\n";
  out << "silhouette_by_k";
  for (const auto& [k, score] : by_k) out << ' ' << k << ':' << HexDouble(score);
  out << "\ngroups " << groups.size() << "\n";
  for (const auto& group : groups) {
    for (size_t i = 0; i < group.size(); ++i) {
      out << (i > 0 ? " " : "") << group[i];
    }
    out << "\n";
  }
  out << "result\n" << SerializeTruthDiscoveryResult(result) << "\n";
  return out.str();
}

std::string RunAll() {
  const Accu base;
  std::ostringstream out;
  for (const NamedDataset& d : Datasets()) {
    const std::vector<std::pair<std::string, std::function<void(TdacOptions*)>>>
        tdac_variants = {
            {"tdac_kmeans", [](TdacOptions*) {}},
            {"tdac_sparse", [](TdacOptions* o) { o->sparse_aware = true; }},
            {"tdac_agglomerative",
             [](TdacOptions* o) {
               o->backend = ClusteringBackend::kAgglomerative;
             }},
            {"tdac_refine2", [](TdacOptions* o) { o->refinement_rounds = 2; }},
        };
    for (const auto& [variant, configure] : tdac_variants) {
      TdacOptions options;
      options.base = &base;
      configure(&options);
      auto report = Tdac(options).DiscoverWithReport(d.dataset);
      EXPECT_TRUE(report.ok()) << d.name << "/" << variant << ": "
                               << report.status();
      if (!report.ok()) continue;
      out << FormatRun(d.name + "/" + variant, report->chosen_k,
                       report->silhouette, report->silhouette_by_k,
                       report->fell_back_to_base, report->partition.groups(),
                       report->result);
    }
    for (int max_k : {0, 4}) {
      TdocOptions options;
      options.base = &base;
      if (max_k > 0) options.max_k = max_k;
      const std::string variant =
          max_k > 0 ? "tdoc_maxk" + std::to_string(max_k) : "tdoc_default";
      auto report = Tdoc(options).DiscoverWithReport(d.dataset);
      EXPECT_TRUE(report.ok()) << d.name << "/" << variant << ": "
                               << report.status();
      if (!report.ok()) continue;
      out << FormatRun(d.name + "/" + variant, report->chosen_k,
                       report->silhouette, report->silhouette_by_k,
                       report->fell_back_to_base, report->groups,
                       report->result);
    }
  }
  return out.str();
}

TEST(PartitionPipelineGoldenTest, BothAxesMatchGolden) {
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
         << actual.substr(title, actual.find('\n', title) - title) << "\"\n"
         << "rerun with TDAC_UPDATE_GOLDEN=1 only if the change is "
            "intentional";
}

}  // namespace
}  // namespace tdac
