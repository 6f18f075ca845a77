#ifndef TDAC_TESTS_TEST_UTIL_H_
#define TDAC_TESTS_TEST_UTIL_H_

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/dataset_builder.h"
#include "data/ground_truth.h"

namespace tdac {
namespace testutil {

/// A claim spec for BuildDataset: names plus an int value.
struct ClaimSpec {
  std::string source;
  std::string object;
  std::string attribute;
  int64_t value;
};

/// Builds a dataset from specs; aborts the test on any failure.
inline Dataset BuildDataset(const std::vector<ClaimSpec>& specs) {
  DatasetBuilder b;
  for (const ClaimSpec& s : specs) {
    Status st = b.AddClaim(s.source, s.object, s.attribute, Value(s.value));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  auto result = b.Build();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.MoveValue();
}

/// A dataset where two reliable sources agree on the truth and one bad
/// source dissents, over `num_items` items. Truth for item i is value 100+i;
/// the bad source claims 200+i.
inline Dataset TwoGoodOneBad(int num_items, GroundTruth* truth) {
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < num_items; ++i) {
    std::string attr = "a" + std::to_string(i);
    specs.push_back({"good1", "o", attr, 100 + i});
    specs.push_back({"good2", "o", attr, 100 + i});
    specs.push_back({"bad", "o", attr, 200 + i});
  }
  Dataset d = BuildDataset(specs);
  if (truth != nullptr) {
    for (int i = 0; i < num_items; ++i) {
      truth->Set(0, i, Value(int64_t{100 + i}));
    }
  }
  return d;
}

/// A scratch directory private to this test process: made once with
/// mkdtemp under testing::TempDir() and removed at exit. Under parallel
/// ctest a test and its `_threads8` twin are separate processes, so paths
/// built under this directory never collide the way fixed
/// `TempDir() + name` paths did. Forked children leave with `_exit`, so
/// only the parent removes it.
inline const std::string& ProcessTempDir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string tmpl = ::testing::TempDir() + "tdac_test_XXXXXX";
      if (::mkdtemp(tmpl.data()) == nullptr) {
        ADD_FAILURE() << "mkdtemp failed for " << tmpl;
      }
      path = tmpl;
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace testutil
}  // namespace tdac

#endif  // TDAC_TESTS_TEST_UTIL_H_
