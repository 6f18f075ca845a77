#ifndef TDAC_TDAC_TRUTH_VECTORS_H_
#define TDAC_TDAC_TRUTH_VECTORS_H_

#include <cstdint>
#include <vector>

#include "clustering/distance.h"
#include "common/result.h"
#include "data/dataset_like.h"
#include "data/ground_truth.h"
#include "td/truth_discovery.h"

namespace tdac {

/// \brief Which dimension of the claim table a partition-then-discover
/// pipeline clusters: attributes (TD-AC, the paper) or objects (TD-OC, the
/// conclusion's object-partitioning perspective).
enum class PartitionAxis {
  kAttributes,
  kObjects,
};

/// \brief The matrix of truth vectors (paper Section 3.1), one row per
/// active id on the partitioned axis.
///
/// On the attribute axis, row r is the truth vector of attribute
/// `attributes[r]`: one coordinate per (object, source) pair in a fixed
/// order (object-major), valued 1 when the source's claim for that
/// attribute of that object exists and matches the reference truth, 0
/// otherwise (Eq. 1). The object axis is the transpose: row r belongs to
/// object `objects[r]`, one coordinate per (attribute, source) pair,
/// attribute-major. `masks[r]` records which coordinates correspond to an
/// existing claim — the sparse-aware distance extension uses it to
/// distinguish "wrong" from "missing".
struct TruthVectorMatrix {
  /// Row ids: `attributes` on the attribute axis, `objects` on the object
  /// axis; the other stays empty.
  std::vector<AttributeId> attributes;
  std::vector<ObjectId> objects;
  std::vector<FeatureVector> vectors;
  std::vector<std::vector<uint8_t>> masks;

  /// Dimension l of each vector: num_objects * num_sources on the
  /// attribute axis, num_attributes * num_sources on the object axis.
  size_t dimension() const {
    return vectors.empty() ? 0 : vectors[0].size();
  }
};

/// Builds the truth-vector matrix for all active ids of `data` on `axis`,
/// against an explicit reference truth.
[[nodiscard]]
Result<TruthVectorMatrix> BuildTruthVectors(
    const DatasetLike& data, const GroundTruth& reference,
    PartitionAxis axis = PartitionAxis::kAttributes);

/// Convenience: first runs `base` on the whole dataset to obtain the
/// reference truth (the paper's buildTruthVectors(F, A, O, S)).
[[nodiscard]]
Result<TruthVectorMatrix> BuildTruthVectors(const TruthDiscovery& base,
                                            const DatasetLike& data);

}  // namespace tdac

#endif  // TDAC_TDAC_TRUTH_VECTORS_H_
