#ifndef TDAC_CLUSTERING_SILHOUETTE_H_
#define TDAC_CLUSTERING_SILHOUETTE_H_

#include <vector>

#include "clustering/distance.h"
#include "common/result.h"

namespace tdac {

/// \brief Silhouette diagnostics for a clustering, following the paper's
/// Eqs. 5-7.
///
/// For point i in cluster g: cohesion alpha(i) is the mean distance to the
/// other members of g, separation beta(i) the smallest mean distance to any
/// other cluster, and CS(i) = (beta - alpha) / max(alpha, beta). A singleton
/// cluster's point has CS = 0 by the usual convention.
struct SilhouetteResult {
  /// CS per point (Eq. 5).
  std::vector<double> point_scores;

  /// CS per cluster: mean over its points (Eq. 6).
  std::vector<double> cluster_scores;

  /// The paper's partition score CS(P): mean of the cluster scores (Eq. 7).
  /// Note this macro-average weights every cluster equally, unlike the
  /// conventional mean-over-points silhouette.
  double partition_score = 0.0;

  /// Conventional silhouette: mean of point_scores. Exposed for ablations.
  double mean_point_score = 0.0;
};

/// Computes the silhouette of `assignment` (values in [0, k)) over `points`
/// with the given metric (the paper uses Hamming on truth vectors).
/// Fails when k < 2, assignment size mismatches, or a cluster is empty.
[[nodiscard]]
Result<SilhouetteResult> Silhouette(const std::vector<FeatureVector>& points,
                                    const std::vector<int>& assignment, int k,
                                    DistanceMetric metric =
                                        DistanceMetric::kHamming);

/// Same computation over a precomputed symmetric distance matrix. The
/// matrix does not depend on the assignment, so a k sweep builds it once
/// (PairwiseDistances) and scores every candidate k against it.
[[nodiscard]] Result<SilhouetteResult> SilhouetteFromDistances(
    const DistanceMatrix& distances, const std::vector<int>& assignment, int k);

}  // namespace tdac

#endif  // TDAC_CLUSTERING_SILHOUETTE_H_
