// The traced run: the harness calls each layer's public functions itself,
// on the workload's own claims file, with a span around every call. The
// spans give the per-layer numbers; nothing inside the library is
// instrumented.
#include <algorithm>
#include <cstdio>
#include <map>

#include "clustering/distance.h"
#include "clustering/kmeans.h"
#include "clustering/silhouette.h"
#include "common/csv.h"
#include "data/dataset_io.h"
#include "data/dataset_view.h"
#include "td/registry.h"
#include "tdac/tdac.h"
#include "tdac/tdoc.h"
#include "tdac/truth_vectors.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// TD-OC is quadratic in objects, so the traced run gives it at most this
/// many objects of the workload's file (objects_tdoc's whole file).
constexpr int kTdocProbeObjects = 2000;

/// Max over mean of per-group run times: 1 when the groups are even.
double Imbalance(const std::vector<double>& ms) {
  if (ms.empty()) return 1.0;
  double sum = 0.0;
  for (const double v : ms) sum += v;
  const double mean = sum / static_cast<double>(ms.size());
  return mean > 0.0 ? *std::max_element(ms.begin(), ms.end()) / mean : 1.0;
}

/// Relabels `assignment` onto 0..k'-1 in first-seen order; returns k'.
int CompactLabels(std::vector<int>* assignment) {
  std::map<int, int> relabel;
  for (int& label : *assignment) {
    auto it = relabel.try_emplace(label, static_cast<int>(relabel.size())).first;
    label = it->second;
  }
  return static_cast<int>(relabel.size());
}

template <typename T>
T Unwrap(tdac::Result<T> result, const char* what) {
  if (!result.ok()) Fatal(std::string(what) + ": " + result.status().ToString());
  return result.MoveValue();
}

struct CliLayers {
  double read_ms = 0.0;
  double parse_ms = 0.0;
  double load_ms = 0.0;
  double fingerprint_ms = 0.0;
  double group_ms = 0.0;
  double discover_ms = 0.0;
  double serialize_ms = 0.0;
  double write_ms = 0.0;
  uint64_t fingerprint = 0;
  size_t items = 0;
  size_t values = 0;
  size_t claims = 0;
  int iterations = 0;
};

/// The CLI path's layers in order: read, parse, load (parse + build),
/// fingerprint, group, base discover, serialize, write. The dataset and
/// the base result are handed back for the later stages.
CliLayers RunCliLayers(const std::string& claims, const std::string& out,
                       const tdac::TruthDiscovery& base, Tracer* tracer,
                       tdac::Dataset* dataset,
                       tdac::TruthDiscoveryResult* result) {
  CliLayers l;
  std::string text;
  {
    Tracer::Span span(tracer, "common.read");
    text = Unwrap(tdac::ReadFileToString(claims), "read");
    l.read_ms = span.End();
  }
  {
    Tracer::Span span(tracer, "common.csv_parse");
    const tdac::CsvDocument doc =
        Unwrap(tdac::ParseCsvWithLines(text), "parse");
    l.parse_ms = span.End();
  }
  {
    Tracer::Span span(tracer, "data.load");
    *dataset = Unwrap(tdac::DatasetFromCsv(text), "load");
    l.load_ms = span.End();
  }
  l.claims = dataset->num_claims();
  l.values = static_cast<size_t>(dataset->value_dict().size());
  {
    Tracer::Span span(tracer, "data.fingerprint");
    l.fingerprint = tdac::DatasetFingerprint(*dataset);
    l.fingerprint_ms = span.End();
  }
  {
    Tracer::Span span(tracer, "td.group");
    l.items = tdac::td_internal::GroupClaimsByItem(*dataset).size();
    l.group_ms = span.End();
  }
  {
    Tracer::Span span(tracer, "td.discover");
    *result = Unwrap(base.Discover(*dataset), "discover");
    l.discover_ms = span.End();
  }
  l.iterations = result->iterations;
  {
    Tracer::Span span(tracer, "td.serialize");
    const std::string bytes = tdac::SerializeTruthDiscoveryResult(*result);
    l.serialize_ms = span.End();
    if (bytes.empty()) Fatal("empty serialized result");
  }
  {
    Tracer::Span span(tracer, "common.write");
    const tdac::Status s =
        tdac::SaveGroundTruth(result->predicted, *dataset, out);
    l.write_ms = span.End();
    if (!s.ok()) Fatal(s.ToString());
  }
  return l;
}

}  // namespace

RunReport RunTraced(const WorkloadSpec& spec, const Inputs& inputs,
                    const Tools& tools, uint64_t seed,
                    const std::string& trace_path) {
  RunReport report;
  const std::string& claims = inputs.claims_paths[0];
  const std::string out = tools.dir + "/traced_out.csv";
  const std::unique_ptr<tdac::TruthDiscovery> base =
      Unwrap(tdac::MakeAlgorithm(spec.algorithm), "algorithm");

  // The same CLI-path calls without spans, for trace.overhead: once to
  // warm the page cache and the allocator, once timed.
  double untraced_ms = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    tdac::Dataset dataset;
    tdac::TruthDiscoveryResult result;
    const Clock::time_point t0 = Clock::now();
    RunCliLayers(claims, out, *base, nullptr, &dataset, &result);
    untraced_ms = MillisBetween(t0, Clock::now());
  }

  Tracer tracer(seed);
  Tracer* t = &tracer;
  CliLayers cli;
  double cli_ms = 0.0;
  double restrict_ms = 0.0;
  double kmeans_ms = 0.0;
  double silhouette_ms = 0.0;
  tdac::TdacReport tdac_report;
  tdac::TdocReport tdoc_report;
  double tdoc_ms = 0.0;
  std::vector<double> tdac_group_ms;
  std::vector<double> tdoc_group_ms;
  ServeProbe serve;
  {
    Tracer::Span root(t, "sweep");
    tdac::Dataset dataset;
    tdac::TruthDiscoveryResult result;
    {
      Tracer::Span stage(t, "stage:cli");
      cli = RunCliLayers(claims, out, *base, t, &dataset, &result);
      cli_ms = stage.End();
    }
    report.Check(cli.claims == inputs.claims[0], "claim count differs");
    report.Check(cli.items == dataset.DataItems().size() &&
                     result.predicted.size() == cli.items,
                 "grouped items differ from resolved items");

    {
      // TD-AC with the workload's base, then its chosen groups again one
      // by one: view construction and per-group run times.
      Tracer::Span stage(t, "stage:tdac");
      tdac::TdacOptions options;
      options.base = base.get();
      options.threads = spec.threads;
      const tdac::Tdac tdac_algo(options);
      {
        Tracer::Span span(t, "tdac.discover_with_report");
        tdac_report = Unwrap(tdac_algo.DiscoverWithReport(dataset), "tdac");
      }
      report.Check(tdac_report.result.predicted.size() == cli.items,
                   "TD-AC resolved a different item count");
      for (const auto& group : tdac_report.partition.groups()) {
        std::unique_ptr<tdac::DatasetView> view;
        {
          Tracer::Span span(t, "data.restrict");
          view = std::make_unique<tdac::DatasetView>(dataset, group);
          restrict_ms += span.End();
        }
        Tracer::Span span(t, "td.group_discover");
        Unwrap(base->Discover(*view), "group discover");
        tdac_group_ms.push_back(span.End());
      }
    }

    {
      // TD-AC's clustering layer on its own: k-means and silhouette for
      // every k of the sweep, over the base run's truth vectors.
      Tracer::Span stage(t, "stage:clustering");
      tdac::TruthVectorMatrix matrix;
      {
        Tracer::Span span(t, "clustering.vectors");
        matrix = Unwrap(tdac::BuildTruthVectors(dataset, result.predicted),
                        "truth vectors");
      }
      const size_t n = matrix.vectors.size();
      std::vector<std::vector<double>> distances(n, std::vector<double>(n));
      {
        Tracer::Span span(t, "clustering.distances");
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = i + 1; j < n; ++j) {
            distances[i][j] = distances[j][i] = tdac::HammingDistance(
                matrix.vectors[i], matrix.vectors[j]);
          }
        }
        silhouette_ms += span.End();
      }
      for (int k = 2; k + 1 <= static_cast<int>(n); ++k) {
        tdac::KMeansOptions kopts;
        kopts.k = k;
        std::vector<int> assignment;
        {
          Tracer::Span span(t, "clustering.kmeans");
          assignment =
              Unwrap(tdac::KMeans(matrix.vectors, kopts), "kmeans").assignment;
          kmeans_ms += span.End();
        }
        const int effective_k = CompactLabels(&assignment);
        if (effective_k < 2) continue;
        Tracer::Span span(t, "clustering.silhouette");
        Unwrap(tdac::SilhouetteFromDistances(distances, assignment, effective_k),
               "silhouette");
        silhouette_ms += span.End();
      }
    }

    {
      // TD-OC on (a prefix of) the objects, then its groups one by one.
      Tracer::Span stage(t, "stage:tdoc");
      std::vector<tdac::ObjectId> objects = dataset.ActiveObjects();
      if (static_cast<int>(objects.size()) > kTdocProbeObjects) {
        objects.resize(static_cast<size_t>(kTdocProbeObjects));
      }
      std::unique_ptr<tdac::DatasetView> probe;
      {
        Tracer::Span span(t, "data.restrict_objects");
        probe = std::make_unique<tdac::DatasetView>(
            dataset, tdac::DatasetView::ObjectAxis{}, objects);
      }
      tdac::TdocOptions options;
      options.base = base.get();
      const tdac::Tdoc tdoc_algo(options);
      {
        Tracer::Span span(t, "tdoc.discover_with_report");
        tdoc_report = Unwrap(tdoc_algo.DiscoverWithReport(*probe), "tdoc");
        tdoc_ms = span.End();
      }
      report.Check(tdoc_report.result.predicted.size() ==
                       probe->DataItems().size(),
                   "TD-OC resolved a different item count");
      for (const auto& group : tdoc_report.groups) {
        std::unique_ptr<tdac::DatasetView> view;
        {
          Tracer::Span span(t, "data.restrict_objects");
          view = std::make_unique<tdac::DatasetView>(
              *probe, tdac::DatasetView::ObjectAxis{}, group);
        }
        Tracer::Span span(t, "td.group_discover");
        Unwrap(base->Discover(*view), "group discover");
        tdoc_group_ms.push_back(span.End());
      }
    }
    // Release the dataset before the serve probe loads its own copies.
    dataset = tdac::Dataset();
    result = tdac::TruthDiscoveryResult();

    {
      Tracer::Span stage(t, "stage:serve");
      serve = RunServeProbe(spec, inputs, tools, t, &report);
    }
  }
  std::remove(out.c_str());

  const double coverage = tracer.Coverage();
  const double overhead = untraced_ms > 0.0 ? cli_ms / untraced_ms : 0.0;
  report.Add("common.read_ms", "ms", cli.read_ms);
  report.Add("common.csv_parse_ms", "ms", cli.parse_ms);
  report.Add("common.write_ms", "ms", cli.write_ms);
  report.Add("data.load_ms", "ms", cli.load_ms);
  report.Add("data.build_ms", "ms", cli.load_ms - cli.parse_ms);
  report.Add("data.claims", "count", static_cast<double>(cli.claims));
  report.Add("data.items", "count", static_cast<double>(cli.items));
  report.Add("data.values", "count", static_cast<double>(cli.values));
  report.Add("data.resident_mb", "MB", serve.resident_mb);
  report.Add("data.fingerprint_ms", "ms", cli.fingerprint_ms);
  report.Add("data.restrict_ms", "ms", restrict_ms);
  report.Add("td.group_ms", "ms", cli.group_ms);
  report.Add("td.discover_ms", "ms", cli.discover_ms);
  report.Add("td.iterations", "count", cli.iterations);
  report.Add("td.iter_ms", "ms",
             cli.discover_ms / std::max(1, cli.iterations));
  report.Add("td.serialize_ms", "ms", cli.serialize_ms);
  report.Add("tdac.vectors_s", "s", tdac_report.seconds_vectors);
  report.Add("tdac.sweep_s", "s", tdac_report.seconds_sweep);
  report.Add("tdac.discovery_s", "s", tdac_report.seconds_discovery);
  report.Add("tdac.chosen_k", "count", tdac_report.chosen_k);
  report.Add("tdac.group_imbalance", "ratio", Imbalance(tdac_group_ms));
  report.Add("clustering.kmeans_ms", "ms", kmeans_ms);
  report.Add("clustering.silhouette_ms", "ms", silhouette_ms);
  report.Add("tdoc.total_s", "s", tdoc_ms / 1000.0);
  report.Add("tdoc.chosen_k", "count", tdoc_report.chosen_k);
  report.Add("tdoc.group_imbalance", "ratio", Imbalance(tdoc_group_ms));
  report.Add("serve.parse_us", "us", serve.parse_us);
  report.Add("serve.format_us", "us", serve.format_us);
  report.Add("serve.engine_hit_ms", "ms", serve.engine_hit_ms);
  report.Add("serve.engine_cold_ms", "ms", serve.engine_cold_ms);
  report.Add("serve.transport_ms", "ms",
             serve.daemon_hit_ms - serve.engine_hit_ms);
  report.Add("serve.hit_ratio", "ratio", serve.hit_ratio);
  report.Add("serve.executions", "count", serve.executions);
  report.Add("serve.coalesced", "count", serve.coalesced);
  report.Add("serve.gen_late_ms", "ms", serve.gen_late_ms);
  report.Add("trace.coverage", "ratio", coverage);
  report.Add("trace.overhead", "ratio", overhead);

  JsonObject meta;
  meta.Add("workload", spec.name)
      .Add("seed", static_cast<int64_t>(seed))
      .Add("trace.coverage", coverage)
      .Add("trace.overhead", overhead);
  JsonObject self;
  for (const auto& [name, totals] : tracer.TotalsByName()) {
    JsonObject entry;
    entry.Add("total_ms", totals.total_ms)
        .Add("self_ms", totals.self_ms)
        .Add("count", totals.count);
    self.AddRaw(name, entry.str());
  }
  meta.AddRaw("self_time", self.str());
  tracer.WriteChromeTrace(trace_path, meta.str());
  return report;
}

}  // namespace perfbench
