#ifndef TDAC_CLUSTERING_HIERARCHICAL_H_
#define TDAC_CLUSTERING_HIERARCHICAL_H_

#include <vector>

#include "clustering/distance.h"
#include "common/result.h"

namespace tdac {

/// \brief Linkage criteria for agglomerative clustering.
enum class Linkage {
  kSingle,    // min pairwise distance between clusters
  kComplete,  // max pairwise distance
  kAverage,   // mean pairwise distance (UPGMA)
};

/// \brief Options for AgglomerativeCluster.
struct AgglomerativeOptions {
  DistanceMetric metric = DistanceMetric::kHamming;
  Linkage linkage = Linkage::kAverage;
};

/// \brief A full agglomerative merge tree over n points.
///
/// Built once, it can be cut at any level: `CutToK(k)` returns the
/// assignment with exactly k clusters (labels compacted to [0, k)).
/// TD-AC's alternative clustering backend sweeps k by cutting this tree,
/// which amortizes the O(n^3) build across the whole silhouette sweep.
class Dendrogram {
 public:
  struct Merge {
    int left = 0;       // cluster ids being merged (see below)
    int right = 0;
    double distance = 0.0;
  };

  /// Cluster ids: leaves are [0, n); the i-th merge creates cluster n + i.
  Dendrogram(int num_points, std::vector<Merge> merges);

  int num_points() const { return num_points_; }
  const std::vector<Merge>& merges() const { return merges_; }

  /// Assignment with exactly k clusters (1 <= k <= n): the last k - 1
  /// merges are undone. Labels are compacted to [0, k) in order of first
  /// appearance.
  [[nodiscard]] Result<std::vector<int>> CutToK(int k) const;

 private:
  int num_points_;
  std::vector<Merge> merges_;
};

/// Builds the merge tree bottom-up with the requested linkage. O(n^3),
/// intended for attribute counts (tens to low hundreds of points).
[[nodiscard]] Result<Dendrogram> AgglomerativeCluster(
    const std::vector<FeatureVector>& points,
    const AgglomerativeOptions& options);

/// Same, over a precomputed symmetric distance matrix.
[[nodiscard]] Result<Dendrogram> AgglomerativeClusterFromDistances(
    const DistanceMatrix& distances,
    const AgglomerativeOptions& options);

}  // namespace tdac

#endif  // TDAC_CLUSTERING_HIERARCHICAL_H_
