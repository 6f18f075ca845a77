#include "data/dataset.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"

namespace tdac {

Claim Dataset::claim(size_t index) const {
  return Claim{claim_sources_[index], claim_objects_[index],
               claim_attributes_[index],
               value_dict_.ValueAt(claim_value_ids_[index])};
}

const std::vector<int32_t>& Dataset::ClaimsOn(ObjectId object,
                                              AttributeId attribute) const {
  auto it = by_item_.find(ObjectAttrKey(object, attribute));
  if (it == by_item_.end()) return EmptyClaimIndexList();
  return it->second;
}

double Dataset::DataCoverageRate() const {
  // Per object o: S_o = sources with >= 1 claim on o, A_o = attributes with
  // >= 1 claim on o. The numerator of the missing mass is
  // |S_o| * |A_o| - sum_{s in S_o} |A_{o-s}| and the second sum is simply the
  // number of claims on o (claims are unique per (s, o, a)).
  if (num_claims() == 0) return 0.0;
  struct PerObject {
    std::unordered_set<int32_t> source_set;
    std::unordered_set<int32_t> attribute_set;
    size_t claims = 0;
  };
  std::unordered_map<int32_t, PerObject> per_object;
  for (size_t i = 0; i < num_claims(); ++i) {
    PerObject& po = per_object[claim_objects_[i]];
    po.source_set.insert(claim_sources_[i]);
    po.attribute_set.insert(claim_attributes_[i]);
    ++po.claims;
  }
  double full = 0.0;
  double present = 0.0;
  // Sums of integer-valued doubles are exact (well below 2^53), so the
  // traversal order cannot change the result.
  // lint: unordered-ok (exact integer sums)
  for (const auto& [object, po] : per_object) {
    full += static_cast<double>(po.source_set.size()) *
            static_cast<double>(po.attribute_set.size());
    present += static_cast<double>(po.claims);
  }
  if (full <= 0.0) return 0.0;
  return 100.0 * present / full;
}

std::string Dataset::Summary() const {
  std::ostringstream os;
  os << num_sources() << " sources, " << num_objects() << " objects, "
     << num_attributes() << " attributes, " << num_claims()
     << " observations, DCR=" << FormatDouble(DataCoverageRate(), 1) << "%";
  return os.str();
}

void Dataset::AppendClaim(SourceId source, ObjectId object,
                          AttributeId attribute, const ValueRef& value) {
  TDAC_CHECK(!frozen_)
      << "Dataset: AddClaim after Build — the store is frozen";
  claim_sources_.push_back(source);
  claim_objects_.push_back(object);
  claim_attributes_.push_back(attribute);
  claim_value_ids_.push_back(value_dict_.Intern(value));
}

void Dataset::ReserveClaims(size_t claims) {
  CheckMutable("ReserveClaims");
  claim_sources_.reserve(claims);
  claim_objects_.reserve(claims);
  claim_attributes_.reserve(claims);
  claim_value_ids_.reserve(claims);
}

void Dataset::CheckMutable(const char* op) const {
  TDAC_CHECK(!frozen_) << "Dataset: " << op
                       << " after Build — the store is frozen";
}

void Dataset::BuildIndexes() {
  // Each Dataset instance is indexed exactly once: the ranks, items and
  // indexes are derived from the id and value columns, and the dictionary
  // is frozen together with them.
  TDAC_CHECK(!frozen_) << "Dataset::BuildIndexes on a frozen store";
  const size_t n = num_claims();
  by_item_.clear();
  by_source_.assign(source_names_.size(), {});
  items_.clear();
  claim_ids_.resize(n);
  std::iota(claim_ids_.begin(), claim_ids_.end(), 0);
  value_dict_.Freeze();
  claim_value_ranks_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    claim_value_ranks_[i] = value_dict_.rank(claim_value_ids_[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    by_item_[ObjectAttrKey(claim_objects_[i], claim_attributes_[i])]
        .push_back(static_cast<int32_t>(i));
    by_source_[static_cast<size_t>(claim_sources_[i])].push_back(
        static_cast<int32_t>(i));
  }
  items_.reserve(by_item_.size());
  // lint: unordered-ok (keys are sorted below)
  for (const auto& [key, indices] : by_item_) items_.push_back(key);
  std::sort(items_.begin(), items_.end());
  claim_items_.resize(n);
  for (size_t r = 0; r < items_.size(); ++r) {
    for (int32_t idx : by_item_.find(items_[r])->second) {
      claim_items_[static_cast<size_t>(idx)] = static_cast<int32_t>(r);
    }
  }
  frozen_ = true;
}

}  // namespace tdac
