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

/// Which id column RestrictedCopy filters on.
enum class CopyAxis { kAttributes, kObjects };

/// An independent reference copy for restriction tests: the claims of
/// `data` whose attribute (or object) id is in `keep`, in storage order,
/// rebuilt through DatasetBuilder with every name of `data` registered
/// first, so ids and name tables match the parent's. It never goes through
/// DatasetView, so comparing a view or Materialize() against it is not
/// circular. An empty selection yields a default-constructed Dataset (the
/// builder refuses to build an empty one).
inline Dataset RestrictedCopy(const Dataset& data,
                              const std::vector<int32_t>& keep,
                              CopyAxis axis = CopyAxis::kAttributes) {
  const bool by_object = axis == CopyAxis::kObjects;
  std::vector<char> kept(
      static_cast<size_t>(by_object ? data.num_objects()
                                    : data.num_attributes()),
      0);
  for (int32_t id : keep) kept[static_cast<size_t>(id)] = 1;
  DatasetBuilder b;
  for (const std::string& name : data.source_names()) b.AddSource(name);
  for (const std::string& name : data.object_names()) b.AddObject(name);
  for (const std::string& name : data.attribute_names()) b.AddAttribute(name);
  for (size_t i = 0; i < data.num_claims(); ++i) {
    const Claim c = data.claim(i);
    if (!kept[static_cast<size_t>(by_object ? c.object : c.attribute)]) {
      continue;
    }
    Status st = b.AddClaim(c.source, c.object, c.attribute, c.value);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  if (b.num_claims() == 0) return Dataset();
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
    std::string attr = "a";
    attr += std::to_string(i);
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
