#include "gen/synthetic.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/dataset_builder.h"

namespace tdac {

namespace {

/// The drawable domain of per-item candidate values, [0, kValuePool).
constexpr int64_t kValuePool = 1000000000;

/// Ceiling on distinct values drawable per item. Rejection sampling keeps
/// its expected cost linear only while the pool stays mostly empty; at half
/// the domain the expected redraws per accepted value are already 2x and
/// grow without bound toward the full domain (an exact-domain request would
/// never terminate once the pool is exhausted). Requests past the ceiling
/// are a config error, refused up front.
constexpr int64_t kMaxDistinctDraws = kValuePool / 2;

/// Draws `count` distinct int64 values for one data item's candidate pool.
Result<std::vector<int64_t>> DrawDistinctValues(Rng* rng, int count) {
  if (count < 0 || count > kMaxDistinctDraws) {
    return Status::InvalidArgument(
        "synthetic: cannot draw " + std::to_string(count) +
        " distinct values from a pool of " + std::to_string(kValuePool) +
        " (max " + std::to_string(kMaxDistinctDraws) + ")");
  }
  std::unordered_set<int64_t> seen;
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(count));
  while (static_cast<int>(out.size()) < count) {
    int64_t v = rng->NextInt(0, kValuePool - 1);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

/// Assigns a reliability level to every (source, group) cell, either by
/// independent weighted draws or stratified per group (exact proportions,
/// shuffled source-to-level mapping).
Result<std::vector<std::vector<double>>> AssignReliability(
    Rng* rng, int num_sources, size_t num_groups,
    const std::vector<double>& levels, const std::vector<double>& weights,
    bool stratified, double noise) {
  if (!weights.empty() && weights.size() != levels.size()) {
    return Status::InvalidArgument(
        "synthetic: level_weights must match reliability_levels");
  }
  bool all_zero_weights = !weights.empty();
  for (double x : weights) {
    if (!std::isfinite(x) || x < 0.0) {
      return Status::InvalidArgument(
          "synthetic: level_weights must be finite and non-negative");
    }
    if (x > 0.0) all_zero_weights = false;
  }
  std::vector<std::vector<double>> reliability(
      static_cast<size_t>(num_sources), std::vector<double>(num_groups, 0.0));
  auto perturb = [&](double level) {
    if (noise > 0.0) {
      level = Clamp(level + rng->NextGaussian(0.0, noise), 0.0, 1.0);
    }
    return level;
  };
  if (stratified) {
    const size_t num_levels = levels.size();
    std::vector<double> w = weights;
    // All-zero weights mean uniform, matching Rng::NextWeighted on the
    // independent-draw path below. Without this, total_weight would be 0
    // and the int cast of `exact` (inf/NaN) below is undefined behavior.
    if (w.empty() || all_zero_weights) w.assign(num_levels, 1.0);
    double total_weight = 0.0;
    for (double x : w) total_weight += x;
    for (size_t g = 0; g < num_groups; ++g) {
      // Largest-remainder apportionment of the sources over the levels:
      // floors first, then the leftover seats to the largest fractional
      // parts (ties broken toward the lower level index, so equal-weight
      // splits of an odd source count are deterministic).
      std::vector<int> counts(num_levels, 0);
      std::vector<std::pair<double, size_t>> remainders;
      int assigned = 0;
      for (size_t j = 0; j < num_levels; ++j) {
        double exact = num_sources * w[j] / total_weight;
        counts[j] = static_cast<int>(exact);
        assigned += counts[j];
        remainders.emplace_back(-(exact - counts[j]), j);
      }
      std::sort(remainders.begin(), remainders.end());
      for (size_t r = 0; assigned < num_sources; ++r, ++assigned) {
        ++counts[remainders[r % num_levels].second];
      }
      std::vector<size_t> level_of;
      for (size_t j = 0; j < num_levels; ++j) {
        for (int c = 0; c < counts[j]; ++c) level_of.push_back(j);
      }
      rng->Shuffle(&level_of);
      for (int s = 0; s < num_sources; ++s) {
        reliability[static_cast<size_t>(s)][g] =
            perturb(levels[level_of[static_cast<size_t>(s)]]);
      }
    }
  } else {
    for (int s = 0; s < num_sources; ++s) {
      for (size_t g = 0; g < num_groups; ++g) {
        size_t pick = weights.empty() ? rng->NextBounded(levels.size())
                                      : rng->NextWeighted(weights);
        reliability[static_cast<size_t>(s)][g] = perturb(levels[pick]);
      }
    }
  }
  return reliability;
}

}  // namespace

Result<GeneratedData> GenerateSynthetic(const SyntheticConfig& config) {
  if (config.num_objects < 1 || config.num_sources < 1) {
    return Status::InvalidArgument("synthetic: need >= 1 object and source");
  }
  if (config.planted_groups.empty()) {
    return Status::InvalidArgument("synthetic: planted_groups required");
  }
  if (config.reliability_levels.empty()) {
    return Status::InvalidArgument("synthetic: reliability_levels required");
  }
  if (config.num_false_values < 1) {
    return Status::InvalidArgument("synthetic: need >= 1 false value");
  }
  if (config.num_false_values >= kMaxDistinctDraws) {
    // Checked before the +1 below can overflow and before any generation
    // work: the per-item pool (false values plus the truth) must stay
    // drawable from the finite value domain.
    return Status::InvalidArgument(
        "synthetic: num_false_values " +
        std::to_string(config.num_false_values) + " exceeds the drawable pool");
  }
  if (config.coverage <= 0.0 || config.coverage > 1.0) {
    return Status::InvalidArgument("synthetic: coverage must be in (0, 1]");
  }

  TDAC_ASSIGN_OR_RETURN(AttributePartition planted,
                        AttributePartition::FromGroups(config.planted_groups));
  const int num_attrs = static_cast<int>(planted.num_attributes());
  {
    // The groups must cover 0..A-1 contiguously.
    std::vector<AttributeId> all = planted.Attributes();
    for (int a = 0; a < num_attrs; ++a) {
      if (all[static_cast<size_t>(a)] != a) {
        return Status::InvalidArgument(
            "synthetic: planted groups must partition attributes 0..A-1");
      }
    }
  }

  Rng rng(config.seed);

  // Per (source, group) reliability level.
  GeneratedData out;
  out.planted = planted;
  TDAC_ASSIGN_OR_RETURN(
      out.reliability,
      AssignReliability(&rng, config.num_sources, planted.num_groups(),
                        config.reliability_levels, config.level_weights,
                        config.stratified_levels, config.level_noise));

  DatasetBuilder builder;
  std::vector<SourceId> source_ids(static_cast<size_t>(config.num_sources));
  for (int s = 0; s < config.num_sources; ++s) {
    source_ids[static_cast<size_t>(s)] =
        builder.AddSource(Numbered("S", s + 1));
  }
  std::vector<AttributeId> attr_ids(static_cast<size_t>(num_attrs));
  for (int a = 0; a < num_attrs; ++a) {
    attr_ids[static_cast<size_t>(a)] =
        builder.AddAttribute(Numbered("A", a + 1));
  }

  // Group of each attribute, resolved once.
  std::vector<int> group_of(static_cast<size_t>(num_attrs));
  for (int a = 0; a < num_attrs; ++a) {
    group_of[static_cast<size_t>(a)] = planted.GroupOf(a);
  }

  for (int o = 0; o < config.num_objects; ++o) {
    ObjectId oid = builder.AddObject(Numbered("O", o + 1));
    for (int a = 0; a < num_attrs; ++a) {
      TDAC_ASSIGN_OR_RETURN(
          std::vector<int64_t> pool,
          DrawDistinctValues(&rng, config.num_false_values + 1));
      const Value truth(pool[0]);
      out.truth.Set(oid, attr_ids[static_cast<size_t>(a)], truth);
      const int g = group_of[static_cast<size_t>(a)];
      for (int s = 0; s < config.num_sources; ++s) {
        if (!rng.NextBernoulli(config.coverage)) continue;
        const double r = out.reliability[static_cast<size_t>(s)]
                                        [static_cast<size_t>(g)];
        Value claimed;
        if (rng.NextBernoulli(r)) {
          claimed = truth;
        } else if (rng.NextBernoulli(config.distractor_rate)) {
          claimed = Value(pool[1]);  // the item's canonical wrong value
        } else {
          claimed = Value(pool[1 + rng.NextBounded(
              static_cast<uint64_t>(config.num_false_values))]);
        }
        TDAC_RETURN_NOT_OK(builder.AddClaim(
            source_ids[static_cast<size_t>(s)], oid,
            attr_ids[static_cast<size_t>(a)], std::move(claimed)));
      }
    }
  }

  TDAC_ASSIGN_OR_RETURN(out.dataset, builder.Build());
  return out;
}

Result<ObjectCorrelatedData> GenerateObjectCorrelated(
    const ObjectCorrelatedConfig& config) {
  if (config.num_attributes < 1 || config.num_sources < 1) {
    return Status::InvalidArgument(
        "object-correlated: need >= 1 attribute and source");
  }
  if (config.planted_groups.empty()) {
    return Status::InvalidArgument("object-correlated: planted_groups required");
  }
  if (config.reliability_levels.empty()) {
    return Status::InvalidArgument(
        "object-correlated: reliability_levels required");
  }
  if (config.num_false_values < 1) {
    return Status::InvalidArgument("object-correlated: need >= 1 false value");
  }
  if (config.num_false_values >= kMaxDistinctDraws) {
    return Status::InvalidArgument(
        "object-correlated: num_false_values " +
        std::to_string(config.num_false_values) + " exceeds the drawable pool");
  }
  if (config.coverage <= 0.0 || config.coverage > 1.0) {
    return Status::InvalidArgument(
        "object-correlated: coverage must be in (0, 1]");
  }

  // Validate that the groups partition 0..O-1 and index them.
  int num_objects = 0;
  for (const auto& g : config.planted_groups) {
    num_objects += static_cast<int>(g.size());
  }
  std::vector<int> group_of(static_cast<size_t>(num_objects), -1);
  for (size_t g = 0; g < config.planted_groups.size(); ++g) {
    for (ObjectId o : config.planted_groups[g]) {
      if (o < 0 || o >= num_objects ||
          group_of[static_cast<size_t>(o)] != -1) {
        return Status::InvalidArgument(
            "object-correlated: planted groups must partition objects "
            "0..O-1");
      }
      group_of[static_cast<size_t>(o)] = static_cast<int>(g);
    }
  }

  Rng rng(config.seed);
  ObjectCorrelatedData out;
  out.planted = config.planted_groups;
  TDAC_ASSIGN_OR_RETURN(
      out.reliability,
      AssignReliability(&rng, config.num_sources,
                        config.planted_groups.size(),
                        config.reliability_levels, config.level_weights,
                        config.stratified_levels, config.level_noise));

  DatasetBuilder builder;
  std::vector<SourceId> source_ids(static_cast<size_t>(config.num_sources));
  for (int s = 0; s < config.num_sources; ++s) {
    source_ids[static_cast<size_t>(s)] =
        builder.AddSource(Numbered("S", s + 1));
  }
  std::vector<AttributeId> attr_ids(
      static_cast<size_t>(config.num_attributes));
  for (int a = 0; a < config.num_attributes; ++a) {
    attr_ids[static_cast<size_t>(a)] =
        builder.AddAttribute(Numbered("A", a + 1));
  }

  for (int o = 0; o < num_objects; ++o) {
    ObjectId oid = builder.AddObject(Numbered("O", o + 1));
    const int g = group_of[static_cast<size_t>(o)];
    for (int a = 0; a < config.num_attributes; ++a) {
      TDAC_ASSIGN_OR_RETURN(
          std::vector<int64_t> pool,
          DrawDistinctValues(&rng, config.num_false_values + 1));
      const Value truth(pool[0]);
      out.truth.Set(oid, attr_ids[static_cast<size_t>(a)], truth);
      for (int s = 0; s < config.num_sources; ++s) {
        if (!rng.NextBernoulli(config.coverage)) continue;
        const double r = out.reliability[static_cast<size_t>(s)]
                                        [static_cast<size_t>(g)];
        Value claimed;
        if (rng.NextBernoulli(r)) {
          claimed = truth;
        } else if (rng.NextBernoulli(config.distractor_rate)) {
          claimed = Value(pool[1]);
        } else {
          claimed = Value(pool[1 + rng.NextBounded(
              static_cast<uint64_t>(config.num_false_values))]);
        }
        TDAC_RETURN_NOT_OK(builder.AddClaim(
            source_ids[static_cast<size_t>(s)], oid,
            attr_ids[static_cast<size_t>(a)], std::move(claimed)));
      }
    }
  }
  TDAC_ASSIGN_OR_RETURN(out.dataset, builder.Build());
  return out;
}

Result<SyntheticConfig> PaperSyntheticConfig(int which, uint64_t seed) {
  SyntheticConfig config;
  config.seed = seed;
  // Difficulty calibration (see DESIGN.md): per group, half the sources are
  // unreliable (stratified so no group degenerates into an unrecoverable
  // all-bad regime), and unreliable claims coalesce on a per-item
  // distractor value 80% of the time. This reproduces the paper's Table 4
  // shape: majority voting breaks on distractor near-ties, global Accu
  // partially recovers, partitioned Accu (Oracle / TD-AC) nearly fully.
  config.distractor_rate = 0.8;
  config.num_false_values = 10;
  config.level_weights = {0.25, 0.5, 0.25};
  config.stratified_levels = true;
  std::string planted_text;
  switch (which) {
    case 1:
      config.reliability_levels = {1.0, 0.0, 1.0};
      config.level_noise = 0.0;
      planted_text = "[(1,2),(4,6),(3),(5)]";
      break;
    case 2:
      config.reliability_levels = {1.0, 0.0, 0.8};
      config.level_noise = 0.0;
      planted_text = "[(2,5),(1,4),(3,6)]";
      break;
    case 3:
      config.reliability_levels = {1.0, 0.2, 0.8};
      config.level_noise = 0.05;
      planted_text = "[(1,6,3),(2,4,5)]";
      break;
    default:
      return Status::InvalidArgument(
          "PaperSyntheticConfig: which must be 1, 2, or 3");
  }
  TDAC_ASSIGN_OR_RETURN(AttributePartition planted,
                        AttributePartition::Parse(planted_text));
  config.planted_groups = planted.groups();
  return config;
}

}  // namespace tdac
