#include "data/dataset_like.h"

#include "data/dataset.h"

namespace tdac {
namespace {

/// Ascending ids of the `axis` column entries that some claim of `data`
/// carries.
std::vector<int32_t> ActiveIds(const DatasetLike& data,
                               const std::vector<int32_t>& axis, int count) {
  std::vector<char> seen(static_cast<size_t>(count), 0);
  for (int32_t id : data.claim_ids()) {
    seen[static_cast<size_t>(axis[static_cast<size_t>(id)])] = 1;
  }
  std::vector<int32_t> out;
  for (size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(static_cast<int32_t>(i));
  }
  return out;
}

}  // namespace

std::vector<AttributeId> DatasetLike::ActiveAttributes() const {
  return ActiveIds(*this, storage().claim_attributes(), num_attributes());
}

std::vector<ObjectId> DatasetLike::ActiveObjects() const {
  return ActiveIds(*this, storage().claim_objects(), num_objects());
}

uint64_t DatasetFingerprint(const DatasetLike& data) {
  // FNV-1a-style fold; Value::Hash is stable, so the fingerprint is too.
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(data.num_sources()));
  mix(static_cast<uint64_t>(data.num_objects()));
  mix(static_cast<uint64_t>(data.num_attributes()));
  mix(data.num_claims());
  const Dataset& storage = data.storage();
  const std::vector<int32_t>& sources = storage.claim_sources();
  const std::vector<int32_t>& objects = storage.claim_objects();
  const std::vector<int32_t>& attributes = storage.claim_attributes();
  const std::vector<int32_t>& value_ids = storage.claim_value_ids();
  const ValueDict& dict = storage.value_dict();
  // Each dictionary entry is hashed once, on first use. Equal values share
  // one id and one Hash() (-0.0 and +0.0 included), so the bits match a
  // per-claim Value hash.
  std::vector<uint64_t> value_hash(static_cast<size_t>(dict.size()));
  std::vector<char> hashed(static_cast<size_t>(dict.size()), 0);
  for (int32_t id : data.claim_ids()) {
    const auto i = static_cast<size_t>(id);
    const auto v = static_cast<size_t>(value_ids[i]);
    if (!hashed[v]) {
      value_hash[v] = dict.ValueAt(value_ids[i]).Hash();
      hashed[v] = 1;
    }
    mix(static_cast<uint64_t>(static_cast<uint32_t>(sources[i])));
    mix(ObjectAttrKey(objects[i], attributes[i]));
    mix(value_hash[v]);
  }
  return h;
}

}  // namespace tdac
