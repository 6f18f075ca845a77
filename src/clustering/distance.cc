#include "clustering/distance.h"

#include <cmath>

#include "common/logging.h"

namespace tdac {

double HammingDistance(const FeatureVector& a, const FeatureVector& b) {
  TDAC_CHECK(a.size() == b.size()) << "HammingDistance: size mismatch";
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += std::fabs(a[i] - b[i]);
  return acc;
}

double SquaredEuclideanDistance(const FeatureVector& a,
                                const FeatureVector& b) {
  TDAC_CHECK(a.size() == b.size()) << "SquaredEuclidean: size mismatch";
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double EuclideanDistance(const FeatureVector& a, const FeatureVector& b) {
  return std::sqrt(SquaredEuclideanDistance(a, b));
}

double MaskedHammingDistance(const FeatureVector& a, const FeatureVector& b,
                             const std::vector<uint8_t>& mask_a,
                             const std::vector<uint8_t>& mask_b) {
  TDAC_CHECK(a.size() == b.size() && a.size() == mask_a.size() &&
             a.size() == mask_b.size())
      << "MaskedHammingDistance: size mismatch";
  // Branchless: whether both sources observe a cell is data-dependent and
  // close to incompressible for the predictor, so the masked accumulation
  // multiplies by the 0/1 joint mask instead of branching and the loop
  // body is straight-line code. Adding `0.0 * |a-b|` for an unobserved cell is
  // bit-identical to skipping it (the accumulator is a non-negative sum of
  // finite terms; truth vectors are 0/1, so |a-b| is never NaN).
  double acc = 0.0;
  size_t observed = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const uint8_t m = mask_a[i] & mask_b[i];
    acc += static_cast<double>(m) * std::fabs(a[i] - b[i]);
    observed += m;
  }
  if (observed == 0) return 0.5 * static_cast<double>(a.size());
  return acc * static_cast<double>(a.size()) / static_cast<double>(observed);
}

double Distance(DistanceMetric metric, const FeatureVector& a,
                const FeatureVector& b) {
  switch (metric) {
    case DistanceMetric::kHamming:
      return HammingDistance(a, b);
    case DistanceMetric::kSquaredEuclidean:
      return SquaredEuclideanDistance(a, b);
    case DistanceMetric::kEuclidean:
      return EuclideanDistance(a, b);
  }
  return 0.0;
}

DistanceMatrix PairwiseDistances(
    size_t n, const std::function<double(size_t, size_t)>& distance,
    const ParallelForOptions& parallel) {
  DistanceMatrix matrix(n, std::vector<double>(n, 0.0));
  ParallelFor(
      n,
      [&](size_t i) {
        for (size_t j = i + 1; j < n; ++j) {
          const double d = distance(i, j);
          matrix[i][j] = d;
          matrix[j][i] = d;
        }
      },
      parallel);
  return matrix;
}

DistanceMatrix PairwiseDistances(const std::vector<FeatureVector>& points,
                                 DistanceMetric metric,
                                 const ParallelForOptions& parallel) {
  return PairwiseDistances(
      points.size(),
      [&](size_t i, size_t j) { return Distance(metric, points[i], points[j]); },
      parallel);
}

}  // namespace tdac
