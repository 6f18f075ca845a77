#ifndef TDAC_TD_TRUTH_DISCOVERY_H_
#define TDAC_TD_TRUTH_DISCOVERY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/run_guard.h"
#include "common/status.h"
#include "data/dataset_like.h"
#include "data/ground_truth.h"
#include "data/value_dict.h"

namespace tdac {

/// \brief Options shared by every truth-discovery algorithm.
struct TruthDiscoveryOptions {
  /// Upper bound on outer iterations for iterative algorithms.
  int max_iterations = 20;

  /// Convergence test: the iteration stops when the L1 change of the source
  /// trust/accuracy vector divided by the number of sources drops below this.
  double convergence_threshold = 1e-4;

  /// Initial source trust / accuracy.
  double initial_trust = 0.8;
};

/// \brief Output of a truth-discovery run.
struct TruthDiscoveryResult {
  /// The predicted true value for every data item that has at least one
  /// claim.
  GroundTruth predicted;

  /// Confidence (algorithm-specific scale; probabilities for the Bayesian
  /// family, logistic confidences for TruthFinder, vote fractions for
  /// MajorityVote) of the selected value per data item key.
  std::unordered_map<uint64_t, double> confidence;

  /// Final per-source trust/accuracy estimate, indexed by SourceId.
  std::vector<double> source_trust;

  /// Number of outer iterations executed (the paper's #Iteration column).
  int iterations = 0;

  /// Whether the convergence test fired before max_iterations.
  bool converged = false;

  /// Why the run stopped. kConverged/kMaxIterations are clean outcomes;
  /// kDeadline/kCancelled/kNonFinite label a best-so-far degraded result
  /// (see docs/robustness.md).
  StopReason stop_reason = StopReason::kConverged;

  /// True when a guard or the numeric rails cut the run short.
  bool degraded() const { return IsDegraded(stop_reason); }
};

/// Serializes a result into a checkpoint payload: predictions in sorted key
/// order, Value payloads token-escaped, and every double as its IEEE-754
/// bits, so Serialize → Deserialize is a bit-exact round trip.
std::string SerializeTruthDiscoveryResult(const TruthDiscoveryResult& result);

/// Inverse of SerializeTruthDiscoveryResult; fails with InvalidArgument on
/// any malformed field (a checkpoint payload that passed its CRC but was
/// written by something else entirely).
[[nodiscard]] Result<TruthDiscoveryResult> DeserializeTruthDiscoveryResult(
    std::string_view payload);

/// \brief Abstract interface implemented by every algorithm (the paper's
/// "base truth discovery algorithm" F).
class TruthDiscovery {
 public:
  virtual ~TruthDiscovery() = default;

  /// Stable algorithm name ("MajorityVote", "TruthFinder", ...).
  virtual std::string_view name() const = 0;

  /// Runs the algorithm over all claims in `data` — an owning `Dataset` or
  /// a zero-copy `DatasetView` restriction. Fails on an empty dataset;
  /// items whose conflict set is empty are simply absent from the result.
  [[nodiscard]] Result<TruthDiscoveryResult> Discover(
      const DatasetLike& data) const;

  /// Guarded entry point: the run cooperatively checks `guard` at every
  /// outer iteration and stops early with a best-so-far result labeled by
  /// `stop_reason` when a deadline/budget/cancellation trips. Both entry
  /// points apply the numeric rails: a result can never carry non-finite
  /// trust or confidence (offending values are zeroed and the result is
  /// marked kNonFinite).
  [[nodiscard]] Result<TruthDiscoveryResult> Discover(
      const DatasetLike& data, const RunGuard& guard) const;

 protected:
  /// Algorithm body. Implementations check `guard.OnIteration()` at the top
  /// of every outer iteration after the first (so even a tripped guard
  /// yields one usable iterate) and stop with the returned StopReason.
  [[nodiscard]] virtual Result<TruthDiscoveryResult> DiscoverGuarded(
      const DatasetLike& data, const RunGuard& guard) const = 0;
};

namespace td_internal {

/// One data item's conflict set: the distinct claimed values and, aligned
/// with them, the sources supporting each value (ascending SourceId).
struct ItemConflict {
  uint64_t key = 0;
  std::vector<Value> values;
  std::vector<std::vector<SourceId>> supporters;

  /// Storage-dictionary id of each value, aligned with `values`: kernels
  /// compare these int32s instead of the Values.
  std::vector<ValueId> value_ids;
};

/// Groups the dataset's claims by data item, with values sorted (total order
/// on Value) so that downstream tie-breaking is deterministic.
///
/// Each claim's (value rank << 32 | source) is packed into one uint64 from
/// the storage columns and the packed keys are sorted per item — the
/// (Value, SourceId) order without Value copies or string comparisons
/// (distinct non-NaN values have distinct ranks in value order; equal
/// values share one dictionary id).
///
/// The packed form assumes both halves fit in 32 bits. That assumption is
/// enforced, not implicit: `GroupKeysFitPackedWidth` is checked against the
/// store's dictionary size and source count, and the run aborts when either
/// axis is too wide, so a future widening of the id types can never
/// silently corrupt the sort order.
std::vector<ItemConflict> GroupClaimsByItem(const DatasetLike& data);

/// Number of distinct values representable in one half of a packed group
/// key: ranks and source ids must both lie in [0, 2^32).
inline constexpr int64_t kPackedGroupKeyWidth = int64_t{1} << 32;

/// True when every rank in [0, num_ranks) and every source id in
/// [0, num_sources) fits its 32-bit half of the packed `(rank << 32) |
/// source` group key, i.e. packed-key order is exactly lexicographic
/// (rank, source) order. The columnar grouping sort requires this.
bool GroupKeysFitPackedWidth(int64_t num_ranks, int64_t num_sources);

/// Packs one (value rank, source id) pair into the 64-bit group key.
/// Aborts when either half is negative or out of packed width — callers
/// must gate on GroupKeysFitPackedWidth first.
uint64_t PackGroupKey(int64_t rank, int64_t source);

/// Index of the value with maximal score; ties resolved to the smallest
/// index (i.e. the smallest value, given sorted values).
size_t ArgMax(const std::vector<double>& scores);

/// Mean absolute change per coordinate between two equal-length vectors.
double MeanAbsDelta(const std::vector<double>& a, const std::vector<double>& b);

/// Final numeric rail applied by TruthDiscovery::Discover to every result:
/// replaces non-finite source-trust / confidence entries with 0.0 and, if
/// any were found, demotes the result to kNonFinite (converged = false).
/// A no-op on finite results.
void SanitizeResult(TruthDiscoveryResult& result);

}  // namespace td_internal

}  // namespace tdac

#endif  // TDAC_TD_TRUTH_DISCOVERY_H_
