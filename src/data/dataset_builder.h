#ifndef TDAC_DATA_DATASET_BUILDER_H_
#define TDAC_DATA_DATASET_BUILDER_H_

#include <functional>
#include <memory_resource>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"

namespace tdac {

/// \brief Incremental constructor for `Dataset`.
///
/// Names are interned: adding an existing name returns the existing id.
/// Claims must be unique per (source, object, attribute) — the one-truth
/// setting allows a source a single claim per data item.
class DatasetBuilder {
 public:
  DatasetBuilder() = default;

  /// Returns the id of `name`, creating it on first use. A known name is
  /// found without copying it.
  SourceId AddSource(std::string_view name);
  ObjectId AddObject(std::string_view name);
  AttributeId AddAttribute(std::string_view name);

  /// Looks up an existing name; kInvalidId when absent.
  SourceId FindSource(std::string_view name) const;
  ObjectId FindObject(std::string_view name) const;
  AttributeId FindAttribute(std::string_view name) const;

  /// Records a claim: its ids go straight into the store's columns and its
  /// value is interned into the dictionary, in append order. Fails with
  /// AlreadyExists if this (source, object, attribute) already has a claim,
  /// and with InvalidArgument on bad ids.
  [[nodiscard]]
  Status AddClaim(SourceId source, ObjectId object, AttributeId attribute,
                  const ValueRef& value);

  /// Name-based convenience overload (interns all three names).
  [[nodiscard]]
  Status AddClaim(std::string_view source, std::string_view object,
                  std::string_view attribute, const ValueRef& value);

  /// Reserves the claim columns for `claims` more claims (a hint for
  /// loaders that know the row count up front).
  void ReserveClaims(size_t claims);

  size_t num_claims() const { return dataset_.num_claims(); }

  /// Finalizes the dataset and resets the builder. Fails when empty. The
  /// returned store is frozen (`Dataset::frozen()`): its indexes are built
  /// once here, and any later append aborts.
  [[nodiscard]] Result<Dataset> Build();

 private:
  // Name -> id, probed by string_view (heterogeneous lookup), so a known
  // name costs one hash and no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameIds =
      std::unordered_map<std::string, int32_t, NameHash, std::equal_to<>>;

  Dataset dataset_;
  NameIds source_ids_;
  NameIds object_ids_;
  NameIds attribute_ids_;
  // The duplicate check's per-claim nodes live in their own arena, released
  // whole by Build. From the shared heap they would interleave with the
  // value dictionary's long-lived nodes (interned claim by claim) and, once
  // freed, leave small holes that scatter every later allocation:
  // MajorityVote on a freshly loaded 1.2M-claim store ran ~2x slower.
  using SeenMap =
      std::pmr::unordered_map<uint64_t, std::pmr::unordered_map<int32_t, char>>;
  std::pmr::monotonic_buffer_resource seen_arena_;
  SeenMap seen_{&seen_arena_};
};

}  // namespace tdac

#endif  // TDAC_DATA_DATASET_BUILDER_H_
