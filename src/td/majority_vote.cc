#include "td/majority_vote.h"

#include "data/dataset.h"

namespace tdac {

Result<TruthDiscoveryResult> MajorityVote::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& /*guard*/) const {
  // Single-pass: no loop boundary at which a guard could usefully trip.
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("MajorityVote: empty dataset");
  }
  TruthDiscoveryResult result;
  result.iterations = 1;
  result.converged = true;

  const Dataset& storage = data.storage();
  const std::vector<uint64_t>& storage_items = storage.DataItems();
  // Elected dictionary id per *storage* item row (kInvalidId = the row is
  // not part of this dataset/view); lets the trust pass below compare
  // int32 columns instead of looking claims up in the prediction map.
  std::vector<int32_t> elected(storage_items.size(), kInvalidId);
  size_t row = 0;

  const auto items = td_internal::GroupClaimsByItem(data);
  for (const auto& item : items) {
    std::vector<double> votes(item.values.size());
    double total = 0.0;
    for (size_t i = 0; i < item.values.size(); ++i) {
      votes[i] = static_cast<double>(item.supporters[i].size());
      total += votes[i];
    }
    size_t best = td_internal::ArgMax(votes);
    ObjectId o = ObjectFromKey(item.key);
    AttributeId a = AttributeFromKey(item.key);
    result.predicted.Set(o, a, item.values[best]);
    result.confidence[item.key] = total > 0 ? votes[best] / total : 0.0;
    // Items arrive in ascending key order, a subsequence of the storage
    // items — a single forward cursor finds each item's storage row.
    while (storage_items[row] != item.key) ++row;
    elected[row] = item.value_ids[best];
  }

  // Post-hoc source trust: agreement rate with the elected values.
  result.source_trust.assign(static_cast<size_t>(data.num_sources()), 0.0);
  std::vector<double> counts(static_cast<size_t>(data.num_sources()), 0.0);
  // A claim agrees with the election iff its dictionary id equals its
  // item's elected id (id equality == Value equality), so the loop is three
  // contiguous int32 column reads per claim.
  const std::vector<int32_t>& sources = storage.claim_sources();
  const std::vector<int32_t>& value_ids = storage.claim_value_ids();
  const std::vector<int32_t>& claim_rows = storage.claim_items();
  for (int32_t id : data.claim_ids()) {
    const auto i = static_cast<size_t>(id);
    const auto s = static_cast<size_t>(sources[i]);
    counts[s] += 1.0;
    if (value_ids[i] == elected[static_cast<size_t>(claim_rows[i])]) {
      result.source_trust[s] += 1.0;
    }
  }
  for (size_t s = 0; s < result.source_trust.size(); ++s) {
    if (counts[s] > 0) result.source_trust[s] /= counts[s];
  }
  return result;
}

}  // namespace tdac
