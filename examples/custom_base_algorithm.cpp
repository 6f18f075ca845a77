// Plugging a user-defined algorithm into TD-AC: the TruthDiscovery
// interface is the extension point — anything implementing it can serve as
// the base algorithm F of Algorithm 1.
//
// This example implements "ConfidenceWeightedVote": one-shot voting where a
// source's vote is weighted by its overall agreement rate with the
// unweighted majority (a cheap two-pass heuristic).

#include <cstdint>
#include <iostream>
#include <vector>

#include "eval/experiment.h"
#include "eval/report.h"
#include "gen/synthetic.h"
#include "td/majority_vote.h"
#include "tdac/tdac.h"

namespace {

class ConfidenceWeightedVote : public tdac::TruthDiscovery {
 public:
  std::string_view name() const override { return "ConfidenceWeightedVote"; }

 protected:
  // Extension point: implementations override DiscoverGuarded. This
  // algorithm is a two-pass one-shot (no iterative loop), so there is no
  // boundary at which the guard could usefully trip — it is simply unused.
  tdac::Result<tdac::TruthDiscoveryResult> DiscoverGuarded(
      const tdac::DatasetLike& data,
      const tdac::RunGuard& /*guard*/) const override {
    // Pass 1: plain majority to estimate per-source agreement.
    tdac::MajorityVote majority;
    TDAC_ASSIGN_OR_RETURN(tdac::TruthDiscoveryResult first,
                          majority.Discover(data));

    // Pass 2: re-vote with each source weighted by its agreement rate.
    tdac::TruthDiscoveryResult result;
    result.iterations = 1;
    result.converged = true;
    result.source_trust = first.source_trust;
    // Claims are read from the storage's columns: the source and the
    // dictionary id of the value (equal values share one id).
    const tdac::Dataset& storage = data.storage();
    const std::vector<int32_t>& sources = storage.claim_sources();
    const std::vector<int32_t>& value_ids = storage.claim_value_ids();
    for (uint64_t key : data.DataItems()) {
      tdac::ObjectId o = tdac::ObjectFromKey(key);
      tdac::AttributeId a = tdac::AttributeFromKey(key);
      std::vector<tdac::ValueId> values;
      std::vector<double> weights;
      for (int32_t idx : data.ClaimsOn(o, a)) {
        const auto i = static_cast<size_t>(idx);
        double w = 0.05 + result.source_trust[static_cast<size_t>(sources[i])];
        bool merged = false;
        for (size_t v = 0; v < values.size(); ++v) {
          if (values[v] == value_ids[i]) {
            weights[v] += w;
            merged = true;
            break;
          }
        }
        if (!merged) {
          values.push_back(value_ids[i]);
          weights.push_back(w);
        }
      }
      size_t best = 0;
      double total = 0.0;
      for (size_t v = 0; v < values.size(); ++v) {
        total += weights[v];
        if (weights[v] > weights[best]) best = v;
      }
      result.predicted.Set(o, a, storage.value_dict().ValueAt(values[best]));
      result.confidence[key] = total > 0 ? weights[best] / total : 0.0;
    }
    return result;
  }
};

}  // namespace

int main() {
  // A DS1-style correlated dataset at reduced scale.
  auto config = tdac::PaperSyntheticConfig(1, /*seed=*/7);
  if (!config.ok()) {
    std::cerr << config.status() << "\n";
    return 1;
  }
  config->num_objects = 200;
  auto data = tdac::GenerateSynthetic(*config);
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }
  std::cout << "Dataset: " << data->dataset.Summary() << "\n\n";

  ConfidenceWeightedVote custom;
  tdac::TdacOptions options;
  options.base = &custom;  // TD-AC accepts any TruthDiscovery
  tdac::Tdac tdac_algo(options);

  auto rows = tdac::RunExperiments({&custom, &tdac_algo}, data->dataset,
                                   data->truth);
  if (!rows.ok()) {
    std::cerr << rows.status() << "\n";
    return 1;
  }
  tdac::PrintPerformanceTable("Custom base algorithm, alone vs inside TD-AC",
                              *rows, std::cout);
  return 0;
}
