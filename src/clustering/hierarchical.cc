#include "clustering/hierarchical.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace tdac {

Dendrogram::Dendrogram(int num_points, std::vector<Merge> merges)
    : num_points_(num_points), merges_(std::move(merges)) {
  TDAC_CHECK(static_cast<int>(merges_.size()) == num_points_ - 1)
      << "a dendrogram over n points has exactly n - 1 merges";
}

Result<std::vector<int>> Dendrogram::CutToK(int k) const {
  if (k < 1 || k > num_points_) {
    return Status::InvalidArgument("CutToK: k must be in [1, n]");
  }
  // Apply the first n - k merges with a union-find over cluster ids.
  const int total_ids = 2 * num_points_ - 1;
  std::vector<int> parent(static_cast<size_t>(total_ids));
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  const int merges_to_apply = num_points_ - k;
  for (int m = 0; m < merges_to_apply; ++m) {
    int target = num_points_ + m;
    parent[static_cast<size_t>(find(merges_[static_cast<size_t>(m)].left))] =
        target;
    parent[static_cast<size_t>(find(merges_[static_cast<size_t>(m)].right))] =
        target;
  }
  std::vector<int> assignment(static_cast<size_t>(num_points_));
  std::vector<int> label_of(static_cast<size_t>(total_ids), -1);
  int next_label = 0;
  for (int i = 0; i < num_points_; ++i) {
    int root = find(i);
    if (label_of[static_cast<size_t>(root)] < 0) {
      label_of[static_cast<size_t>(root)] = next_label++;
    }
    assignment[static_cast<size_t>(i)] = label_of[static_cast<size_t>(root)];
  }
  TDAC_CHECK(next_label == k) << "cut produced " << next_label
                              << " clusters, expected " << k;
  return assignment;
}

Result<Dendrogram> AgglomerativeClusterFromDistances(
    const DistanceMatrix& distances,
    const AgglomerativeOptions& options) {
  const size_t n = distances.size();
  if (n == 0) return Status::InvalidArgument("Agglomerative: no points");
  for (const auto& row : distances) {
    if (row.size() != n) {
      return Status::InvalidArgument(
          "Agglomerative: distance matrix not square");
    }
  }
  if (n == 1) return Dendrogram(1, {});

  // Active clusters: id, member leaves. New clusters get ids n, n+1, ...
  struct Cluster {
    int id;
    std::vector<int> members;
  };
  std::vector<Cluster> active;
  active.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    active.push_back({static_cast<int>(i), {static_cast<int>(i)}});
  }

  auto linkage_distance = [&](const Cluster& a, const Cluster& b) {
    double best = options.linkage == Linkage::kComplete
                      ? 0.0
                      : std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (int i : a.members) {
      for (int j : b.members) {
        double d = distances[static_cast<size_t>(i)][static_cast<size_t>(j)];
        sum += d;
        if (options.linkage == Linkage::kSingle) {
          best = std::min(best, d);
        } else if (options.linkage == Linkage::kComplete) {
          best = std::max(best, d);
        }
      }
    }
    if (options.linkage == Linkage::kAverage) {
      return sum / (static_cast<double>(a.members.size()) *
                    static_cast<double>(b.members.size()));
    }
    return best;
  };

  std::vector<Dendrogram::Merge> merges;
  merges.reserve(n - 1);
  int next_id = static_cast<int>(n);
  while (active.size() > 1) {
    size_t best_a = 0;
    size_t best_b = 1;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t a = 0; a < active.size(); ++a) {
      for (size_t b = a + 1; b < active.size(); ++b) {
        double d = linkage_distance(active[a], active[b]);
        if (d < best_d) {
          best_d = d;
          best_a = a;
          best_b = b;
        }
      }
    }
    Dendrogram::Merge merge;
    merge.left = active[best_a].id;
    merge.right = active[best_b].id;
    merge.distance = best_d;
    merges.push_back(merge);

    Cluster merged;
    merged.id = next_id++;
    merged.members = std::move(active[best_a].members);
    merged.members.insert(merged.members.end(),
                          active[best_b].members.begin(),
                          active[best_b].members.end());
    // Remove b first (larger index), then a.
    active.erase(active.begin() + static_cast<long>(best_b));
    active.erase(active.begin() + static_cast<long>(best_a));
    active.push_back(std::move(merged));
  }
  return Dendrogram(static_cast<int>(n), std::move(merges));
}

Result<Dendrogram> AgglomerativeCluster(
    const std::vector<FeatureVector>& points,
    const AgglomerativeOptions& options) {
  const size_t n = points.size();
  if (n == 0) return Status::InvalidArgument("Agglomerative: no points");
  for (const FeatureVector& p : points) {
    if (p.size() != points[0].size()) {
      return Status::InvalidArgument(
          "Agglomerative: inconsistent point dimensions");
    }
  }
  return AgglomerativeClusterFromDistances(
      PairwiseDistances(points, options.metric), options);
}

}  // namespace tdac
