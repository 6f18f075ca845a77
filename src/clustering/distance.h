#ifndef TDAC_CLUSTERING_DISTANCE_H_
#define TDAC_CLUSTERING_DISTANCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/parallel.h"

namespace tdac {

/// Dense feature vector; attribute truth vectors store 0/1 coordinates but
/// centroids are real-valued, so everything is double.
using FeatureVector = std::vector<double>;

/// L1 distance; on binary vectors this is exactly the paper's Hamming
/// distance (Eq. 2).
double HammingDistance(const FeatureVector& a, const FeatureVector& b);

/// Squared Euclidean distance. On binary vectors it coincides with Hamming.
double SquaredEuclideanDistance(const FeatureVector& a, const FeatureVector& b);

/// Euclidean distance.
double EuclideanDistance(const FeatureVector& a, const FeatureVector& b);

/// Sparse-aware Hamming: compares only coordinates observed on both sides
/// (mask value != 0) and rescales the sum to the full dimension; the
/// distance of two vectors with no common observed coordinate is half the
/// dimension (maximal uncertainty). This is the conclusion's missing-value
/// extension, used by TD-AC's sparse mode on low-DCR data.
double MaskedHammingDistance(const FeatureVector& a, const FeatureVector& b,
                             const std::vector<uint8_t>& mask_a,
                             const std::vector<uint8_t>& mask_b);

/// Metric selector used by the clustering entry points.
enum class DistanceMetric {
  kHamming,
  kSquaredEuclidean,
  kEuclidean,
};

double Distance(DistanceMetric metric, const FeatureVector& a,
                const FeatureVector& b);

/// Dense symmetric matrix of pairwise distances, zero on the diagonal.
using DistanceMatrix = std::vector<std::vector<double>>;

/// The n x n matrix of `distance(i, j)`. Row i computes the cells
/// (i, j > i) and mirrors them into (j, i); those cells are disjoint across
/// rows, so the rows fan out over the pool per `parallel` with no
/// synchronization and the matrix is identical at every thread count. Rows
/// a tripped `parallel.guard` skipped are left zero: callers that pass a
/// guard must re-check it before using the matrix.
DistanceMatrix PairwiseDistances(
    size_t n, const std::function<double(size_t, size_t)>& distance,
    const ParallelForOptions& parallel = {});

/// Convenience: `Distance(metric, points[i], points[j])` for every pair.
DistanceMatrix PairwiseDistances(const std::vector<FeatureVector>& points,
                                 DistanceMetric metric,
                                 const ParallelForOptions& parallel = {});

}  // namespace tdac

#endif  // TDAC_CLUSTERING_DISTANCE_H_
