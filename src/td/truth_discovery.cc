#include "td/truth_discovery.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/checkpoint.h"
#include "common/logging.h"
#include "data/dataset.h"

namespace tdac {

Result<TruthDiscoveryResult> TruthDiscovery::Discover(
    const DatasetLike& data) const {
  return Discover(data, RunGuard::None());
}

Result<TruthDiscoveryResult> TruthDiscovery::Discover(
    const DatasetLike& data, const RunGuard& guard) const {
  TDAC_ASSIGN_OR_RETURN(TruthDiscoveryResult result,
                        DiscoverGuarded(data, guard));
  td_internal::SanitizeResult(result);
  return result;
}

std::string SerializeTruthDiscoveryResult(const TruthDiscoveryResult& result) {
  std::ostringstream out;
  out << "R " << result.iterations << ' ' << (result.converged ? 1 : 0) << ' '
      << static_cast<int>(result.stop_reason) << '\n';
  out << "T " << result.source_trust.size();
  for (double trust : result.source_trust) out << ' ' << HexDouble(trust);
  out << '\n';
  const std::vector<uint64_t> keys = result.predicted.SortedKeys();
  out << "I " << keys.size() << '\n';
  for (uint64_t key : keys) {
    const Value* value =
        result.predicted.Get(ObjectFromKey(key), AttributeFromKey(key));
    out << key << ' ' << static_cast<int>(value->kind()) << ' '
        << EncodeToken(value->ToString()) << '\n';
  }
  std::vector<uint64_t> conf_keys;
  conf_keys.reserve(result.confidence.size());
  // lint: unordered-ok (keys collected then sorted before emission)
  for (const auto& [key, unused] : result.confidence) conf_keys.push_back(key);
  std::sort(conf_keys.begin(), conf_keys.end());
  out << "C " << conf_keys.size() << '\n';
  for (uint64_t key : conf_keys) {
    out << key << ' ' << HexDouble(result.confidence.at(key)) << '\n';
  }
  return out.str();
}

Result<TruthDiscoveryResult> DeserializeTruthDiscoveryResult(
    std::string_view payload) {
  std::istringstream in{std::string(payload)};
  const auto malformed = [](const std::string& what) {
    return Status::InvalidArgument("malformed result payload: " + what);
  };

  std::string tag;
  int converged = 0;
  int stop = 0;
  TruthDiscoveryResult result;
  if (!(in >> tag) || tag != "R" || !(in >> result.iterations) ||
      !(in >> converged) || !(in >> stop)) {
    return malformed("bad R record");
  }
  if (stop < static_cast<int>(StopReason::kConverged) ||
      stop > static_cast<int>(StopReason::kOverloaded)) {
    return malformed("unknown stop reason " + std::to_string(stop));
  }
  result.converged = converged != 0;
  result.stop_reason = static_cast<StopReason>(stop);

  size_t trust_count = 0;
  if (!(in >> tag) || tag != "T" || !(in >> trust_count)) {
    return malformed("bad T record");
  }
  result.source_trust.reserve(trust_count);
  for (size_t i = 0; i < trust_count; ++i) {
    std::string hex;
    if (!(in >> hex)) return malformed("short trust vector");
    TDAC_ASSIGN_OR_RETURN(double trust, ParseHexDouble(hex));
    result.source_trust.push_back(trust);
  }

  size_t item_count = 0;
  if (!(in >> tag) || tag != "I" || !(in >> item_count)) {
    return malformed("bad I record");
  }
  for (size_t i = 0; i < item_count; ++i) {
    uint64_t key = 0;
    int kind = 0;
    std::string token;
    if (!(in >> key >> kind >> token)) return malformed("short item list");
    if (kind < static_cast<int>(Value::Kind::kString) ||
        kind > static_cast<int>(Value::Kind::kDouble)) {
      return malformed("unknown value kind " + std::to_string(kind));
    }
    TDAC_ASSIGN_OR_RETURN(std::string text, DecodeToken(token));
    TDAC_ASSIGN_OR_RETURN(
        Value value,
        Value::FromTextChecked(static_cast<Value::Kind>(kind), text));
    result.predicted.Set(ObjectFromKey(key), AttributeFromKey(key),
                         std::move(value));
  }

  size_t conf_count = 0;
  if (!(in >> tag) || tag != "C" || !(in >> conf_count)) {
    return malformed("bad C record");
  }
  for (size_t i = 0; i < conf_count; ++i) {
    uint64_t key = 0;
    std::string hex;
    if (!(in >> key >> hex)) return malformed("short confidence list");
    TDAC_ASSIGN_OR_RETURN(double conf, ParseHexDouble(hex));
    result.confidence[key] = conf;
  }
  return result;
}

namespace td_internal {
namespace {

/// Columnar grouping: each claim of an item becomes one packed uint64,
/// `(value rank << 32) | source`, read straight from the storage columns.
/// Sorting the packed keys sorts by (value, source) — ranks are assigned in
/// ascending Value order and equal Values share one dictionary id — and
/// each distinct rank run becomes one conflict entry, its Value
/// materialized once from the dictionary. Sources within a run come out
/// ascending for free.
///
/// Callers must check GroupKeysFitPackedWidth first: a rank or source id at
/// or past 2^32 would alias another key's high or low half and silently
/// reorder the sort.
///
/// Two claims with *distinct NaN* payloads on one item order by interning
/// order (unreachable through checked ingestion: FromTextChecked rejects
/// non-finite doubles, so no built dataset carries NaN values).
std::vector<ItemConflict> GroupClaimsByItemSoa(const DatasetLike& data) {
  const Dataset& storage = data.storage();
  const std::vector<int32_t>& ranks = storage.claim_value_ranks();
  const std::vector<int32_t>& sources = storage.claim_sources();
  const ValueDict& dict = storage.value_dict();
  // lint: hot-path-alloc-ok (single result buffer, reserved below)
  std::vector<ItemConflict> out;
  out.reserve(data.DataItems().size());
  // lint: hot-path-alloc-ok (one scratch buffer reused across all items)
  std::vector<uint64_t> packed;
  for (uint64_t key : data.DataItems()) {
    const auto& claim_indices =
        data.ClaimsOn(ObjectFromKey(key), AttributeFromKey(key));
    ItemConflict item;
    item.key = key;
    packed.clear();
    packed.reserve(claim_indices.size());
    for (int32_t idx : claim_indices) {
      const auto i = static_cast<size_t>(idx);
      packed.push_back(
          (static_cast<uint64_t>(static_cast<uint32_t>(ranks[i])) << 32) |
          static_cast<uint32_t>(sources[i]));
    }
    std::sort(packed.begin(), packed.end());
    // Count distinct ranks first (the packed keys are sorted and in cache)
    // so the per-item vectors are sized exactly once instead of growing.
    size_t groups = 0;
    uint64_t prev_hi = ~uint64_t{0};
    for (uint64_t p : packed) {
      const uint64_t hi = p >> 32;
      groups += hi != prev_hi;
      prev_hi = hi;
    }
    item.values.reserve(groups);
    item.value_ids.reserve(groups);
    item.supporters.reserve(groups);
    for (size_t begin = 0; begin < packed.size();) {
      const uint64_t hi = packed[begin] >> 32;
      size_t end = begin + 1;
      while (end < packed.size() && packed[end] >> 32 == hi) ++end;
      const ValueId id = dict.id_at_rank(static_cast<int32_t>(hi));
      item.values.push_back(dict.ValueAt(id));
      item.value_ids.push_back(id);
      std::vector<SourceId>& group = item.supporters.emplace_back();
      group.reserve(end - begin);
      for (; begin < end; ++begin) {
        group.push_back(static_cast<SourceId>(packed[begin] & 0xffffffffULL));
      }
    }
    out.push_back(std::move(item));
  }
  return out;
}

}  // namespace

bool GroupKeysFitPackedWidth(int64_t num_ranks, int64_t num_sources) {
  return num_ranks >= 0 && num_ranks <= kPackedGroupKeyWidth &&
         num_sources >= 0 && num_sources <= kPackedGroupKeyWidth;
}

uint64_t PackGroupKey(int64_t rank, int64_t source) {
  TDAC_CHECK(rank >= 0 && rank < kPackedGroupKeyWidth)
      << "PackGroupKey: rank " << rank << " out of packed width";
  TDAC_CHECK(source >= 0 && source < kPackedGroupKeyWidth)
      << "PackGroupKey: source " << source << " out of packed width";
  return (static_cast<uint64_t>(rank) << 32) | static_cast<uint64_t>(source);
}

std::vector<ItemConflict> GroupClaimsByItem(const DatasetLike& data) {
  // Width guard: the packed sort is only lexicographic while ranks and
  // source ids both fit their 32-bit half. Today's int32 id types cannot
  // exceed it, but the check keeps the invariant explicit instead of baked
  // into the type widths.
  TDAC_CHECK(GroupKeysFitPackedWidth(data.storage().value_dict().size(),
                                     data.storage().num_sources()))
      << "GroupClaimsByItem: value ranks or source ids exceed the packed "
         "group-key width";
  return GroupClaimsByItemSoa(data);
}

size_t ArgMax(const std::vector<double>& scores) {
  TDAC_CHECK(!scores.empty()) << "ArgMax over empty scores";
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return best;
}

double MeanAbsDelta(const std::vector<double>& a,
                    const std::vector<double>& b) {
  TDAC_CHECK(a.size() == b.size()) << "MeanAbsDelta: size mismatch";
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += std::fabs(a[i] - b[i]);
  return acc / static_cast<double>(a.size());
}

void SanitizeResult(TruthDiscoveryResult& result) {
  bool had_non_finite = false;
  for (double& t : result.source_trust) {
    if (!std::isfinite(t)) {
      t = 0.0;
      had_non_finite = true;
    }
  }
  // lint: unordered-ok (order-independent per-entry mutation, no reduction)
  for (auto& [key, conf] : result.confidence) {
    if (!std::isfinite(conf)) {
      conf = 0.0;
      had_non_finite = true;
    }
  }
  if (had_non_finite) {
    result.stop_reason = StopReason::kNonFinite;
    result.converged = false;
  }
}

}  // namespace td_internal
}  // namespace tdac
