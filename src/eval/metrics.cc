#include "eval/metrics.h"

#include "data/dataset.h"

namespace tdac {

PerformanceMetrics MetricsFromCounts(const ConfusionCounts& counts) {
  PerformanceMetrics m;
  m.counts = counts;
  const double tp = static_cast<double>(counts.tp);
  const double fp = static_cast<double>(counts.fp);
  const double tn = static_cast<double>(counts.tn);
  const double fn = static_cast<double>(counts.fn);
  if (tp + fp > 0) m.precision = tp / (tp + fp);
  if (tp + fn > 0) m.recall = tp / (tp + fn);
  if (tp + fp + tn + fn > 0) m.accuracy = (tp + tn) / (tp + fp + tn + fn);
  if (m.precision + m.recall > 0) {
    m.f1 = 2.0 * m.precision * m.recall / (m.precision + m.recall);
  }
  return m;
}

PerformanceMetrics Evaluate(const DatasetLike& data,
                            const GroundTruth& predicted,
                            const GroundTruth& gold) {
  ConfusionCounts counts;
  size_t items_correct = 0;
  size_t items_evaluated = 0;

  // Item-level accuracy and claim-level confusion, per data item. The
  // predicted and gold values are resolved to dictionary ids once per item
  // and each claim compares its value id (id equality == Value equality; a
  // value the dictionary lacks resolves to kInvalidId, which no claim has).
  const Dataset& storage = data.storage();
  const std::vector<int32_t>& value_ids = storage.claim_value_ids();
  const ValueDict& dict = storage.value_dict();
  for (uint64_t key : data.DataItems()) {
    ObjectId o = ObjectFromKey(key);
    AttributeId a = AttributeFromKey(key);
    const std::vector<int32_t>& claims = data.ClaimsOn(o, a);
    const Value* p = predicted.Get(o, a);
    const Value* g = gold.Get(o, a);
    if (p == nullptr || g == nullptr) {
      counts.skipped_claims += claims.size();
      continue;
    }
    ++items_evaluated;
    if (*p == *g) ++items_correct;
    const ValueId p_id = dict.Find(*p);
    const ValueId g_id = dict.Find(*g);
    for (int32_t idx : claims) {
      const ValueId v = value_ids[static_cast<size_t>(idx)];
      const bool predicted_positive = v == p_id;
      const bool actually_positive = v == g_id;
      if (predicted_positive && actually_positive) {
        ++counts.tp;
      } else if (predicted_positive && !actually_positive) {
        ++counts.fp;
      } else if (!predicted_positive && actually_positive) {
        ++counts.fn;
      } else {
        ++counts.tn;
      }
    }
  }

  PerformanceMetrics m = MetricsFromCounts(counts);
  m.items_evaluated = items_evaluated;
  m.item_accuracy = items_evaluated > 0
                        ? static_cast<double>(items_correct) /
                              static_cast<double>(items_evaluated)
                        : 0.0;
  return m;
}

}  // namespace tdac
