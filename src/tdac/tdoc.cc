#include "tdac/tdoc.h"

#include "common/logging.h"
#include "tdac/tdac.h"

namespace tdac {

Tdoc::Tdoc(TdocOptions options) : options_(options) {
  TDAC_CHECK(options_.base != nullptr) << "Tdoc requires a base algorithm";
  name_ = "TD-OC(F=" + std::string(options_.base->name()) + ")";
}

Result<TruthDiscoveryResult> Tdoc::DiscoverGuarded(
    const DatasetLike& data, const RunGuard& guard) const {
  TDAC_ASSIGN_OR_RETURN(TdocReport report, DiscoverWithReport(data, guard));
  return std::move(report.result);
}

Result<TdocReport> Tdoc::DiscoverWithReport(const DatasetLike& data) const {
  return DiscoverWithReport(data, RunGuard::None());
}

Result<TdocReport> Tdoc::DiscoverWithReport(const DatasetLike& data,
                                            const RunGuard& guard) const {
  // TD-AC's pipeline on the object axis, with k-means at the process-default
  // pool width and every other TD-AC option at its default.
  TdacOptions pipeline;
  pipeline.base = options_.base;
  pipeline.kmeans = options_.kmeans;
  pipeline.silhouette_metric = options_.silhouette_metric;
  pipeline.min_k = options_.min_k;
  pipeline.max_k = options_.max_k;
  pipeline.checkpointer = options_.checkpointer;
  pipeline.checkpoint_prefix = options_.checkpoint_prefix;
  TDAC_ASSIGN_OR_RETURN(TdacReport run,
                        RunPartitionPipeline(pipeline, PartitionAxis::kObjects,
                                             name_, data, guard));
  TdocReport report;
  report.groups = run.partition.groups();
  report.chosen_k = run.chosen_k;
  report.silhouette = run.silhouette;
  report.silhouette_by_k = std::move(run.silhouette_by_k);
  report.fell_back_to_base = run.fell_back_to_base;
  report.result = std::move(run.result);
  return report;
}

}  // namespace tdac
