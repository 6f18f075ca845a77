#include "tdac/truth_vectors.h"

#include "data/dataset.h"

namespace tdac {
namespace {

/// Columnar build: resolve the reference value to a dictionary id once per
/// data item (`ValueDict::Find`), then stream that item's claims comparing
/// int32 ids against it — no per-claim hashing, no Value comparisons. A
/// reference value absent from the dictionary (or NaN, which nothing
/// compares equal to) yields kInvalidId, which no claim id matches: no
/// truth hit.
void FillTruthVectorsSoa(const DatasetLike& data, const GroundTruth& reference,
                         PartitionAxis axis, const std::vector<int>& row_of,
                         size_t num_sources, TruthVectorMatrix* matrix) {
  const bool by_object = axis == PartitionAxis::kObjects;
  const Dataset& storage = data.storage();
  const std::vector<int32_t>& sources = storage.claim_sources();
  const std::vector<int32_t>& value_ids = storage.claim_value_ids();
  const ValueDict& dict = storage.value_dict();
  for (uint64_t key : data.DataItems()) {
    const ObjectId o = ObjectFromKey(key);
    const AttributeId a = AttributeFromKey(key);
    const int r = row_of[static_cast<size_t>(by_object ? o : a)];
    if (r < 0) continue;
    const Value* truth = reference.Get(o, a);
    const ValueId truth_id = truth != nullptr ? dict.Find(*truth) : kInvalidId;
    const size_t row_base =
        static_cast<size_t>(by_object ? a : o) * num_sources;
    std::vector<uint8_t>& mask_row = matrix->masks[static_cast<size_t>(r)];
    FeatureVector& vec_row = matrix->vectors[static_cast<size_t>(r)];
    for (int32_t idx : data.ClaimsOn(o, a)) {
      const auto i = static_cast<size_t>(idx);
      const size_t col = row_base + static_cast<size_t>(sources[i]);
      mask_row[col] = 1;
      if (value_ids[i] == truth_id) vec_row[col] = 1.0;
    }
  }
}

}  // namespace

Result<TruthVectorMatrix> BuildTruthVectors(const DatasetLike& data,
                                            const GroundTruth& reference,
                                            PartitionAxis axis) {
  if (data.num_claims() == 0) {
    return Status::InvalidArgument("BuildTruthVectors: empty dataset");
  }
  TruthVectorMatrix matrix;
  const bool by_object = axis == PartitionAxis::kObjects;
  if (by_object) {
    matrix.objects = data.ActiveObjects();
  } else {
    matrix.attributes = data.ActiveAttributes();
  }
  const std::vector<int32_t>& rows =
      by_object ? matrix.objects : matrix.attributes;
  const size_t num_sources = static_cast<size_t>(data.num_sources());
  const size_t dim =
      static_cast<size_t>(by_object ? data.num_attributes()
                                    : data.num_objects()) *
      num_sources;
  matrix.vectors.assign(rows.size(), FeatureVector(dim, 0.0));
  matrix.masks.assign(rows.size(), std::vector<uint8_t>(dim, 0));

  // Row index per axis id for O(1) scatter.
  std::vector<int> row_of(
      static_cast<size_t>(by_object ? data.num_objects()
                                    : data.num_attributes()),
      -1);
  for (size_t r = 0; r < rows.size(); ++r) {
    row_of[static_cast<size_t>(rows[r])] = static_cast<int>(r);
  }

  FillTruthVectorsSoa(data, reference, axis, row_of, num_sources, &matrix);
  return matrix;
}

Result<TruthVectorMatrix> BuildTruthVectors(const TruthDiscovery& base,
                                            const DatasetLike& data) {
  TDAC_ASSIGN_OR_RETURN(TruthDiscoveryResult reference, base.Discover(data));
  return BuildTruthVectors(data, reference.predicted);
}

}  // namespace tdac
