// tdac_perf — the repository's end-to-end benchmark harness.
//
//   tdac_perf --workload NAME --seed N --seconds S --trace 0|1
//             --cli PATH --serve PATH --work DIR
//
// Generates the workload's inputs from the seed, then either measures one
// end-to-end path (--trace 0: the CLI path or the daemon path) or makes
// the traced layer run (--trace 1). Prints every metric by name and unit,
// then a spec/report record, then one JSON result as the last line. Any
// wrong output makes it exit 1.
#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "spec.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The metrics a run's JSON result carries. End to end: what every
/// workload's path produces, and what BENCHMARK.json gates.
const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> names = {"setup_s", "run_s",
                                                 "peak_rss_mb"};
  return names;
}

/// Per layer: the metric, its better direction (null for counts that
/// only have to repeat: printed, but not in the result) and the
/// end-to-end metric it should move.
struct LayerMetric {
  const char* name;
  const char* better;
  const char* moves;
};

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"common.read_ms", "lower", "setup_s and run_s on tall_mv"},
      {"common.csv_parse_ms", "lower",
       "setup_s and run_s on tall_mv; setup_s on serve_mix"},
      {"common.write_ms", "lower", "run_s on tall_mv"},
      {"data.load_ms", "lower", "setup_s and run_s on tall_mv"},
      {"data.build_ms", "lower", "setup_s and run_s on tall_mv"},
      {"data.claims", nullptr, "none (repeats exactly)"},
      {"data.items", nullptr, "none (repeats exactly)"},
      {"data.values", nullptr, "none (repeats exactly)"},
      {"data.resident_mb", "lower", "peak_rss_mb on serve_mix and tall_mv"},
      {"data.fingerprint_ms", "lower", "hit_p50_ms and view_p50_ms on serve_mix"},
      {"data.restrict_ms", "lower", "view_p50_ms on serve_mix; run_s on exam_tdac"},
      {"td.group_ms", "lower", "run_s on tall_mv; cold_p50_ms on serve_mix"},
      {"td.discover_ms", "lower", "run_s on tall_mv; cold_p50_ms on serve_mix"},
      {"td.iterations", "lower", "run_s on tall_mv; cold_p50_ms on serve_mix"},
      {"td.iter_ms", "lower", "run_s on tall_mv; cold_p50_ms on serve_mix"},
      {"td.serialize_ms", "lower", "run_s on tall_mv"},
      {"tdac.vectors_s", "lower", "run_s on exam_tdac"},
      {"tdac.sweep_s", "lower", "run_s on exam_tdac"},
      {"tdac.discovery_s", "lower", "run_s on exam_tdac"},
      {"tdac.chosen_k", nullptr, "run_s on exam_tdac"},
      {"tdac.group_imbalance", "lower", "run_s on exam_tdac"},
      {"clustering.kmeans_ms", "lower", "run_s on exam_tdac"},
      {"clustering.silhouette_ms", "lower", "run_s on exam_tdac"},
      {"tdoc.total_s", "lower", "run_s on objects_tdoc"},
      {"tdoc.chosen_k", nullptr, "run_s on objects_tdoc"},
      {"tdoc.group_imbalance", "lower", "run_s on objects_tdoc"},
      {"serve.parse_us", "lower", "hit_p50_ms and hit_p99_ms on serve_mix"},
      {"serve.format_us", "lower", "hit_p50_ms and hit_p99_ms on serve_mix"},
      {"serve.engine_hit_ms", "lower", "hit latencies on serve_mix"},
      {"serve.engine_cold_ms", "lower", "cold latencies on serve_mix"},
      {"serve.transport_ms", "lower", "hit and cold latencies on serve_mix"},
      {"serve.hit_ratio", "higher", "capacity_rps (run_s) on serve_mix"},
      {"serve.executions", "lower", "capacity_rps (run_s) on serve_mix"},
      {"serve.coalesced", "higher", "capacity_rps (run_s) on serve_mix"},
      {"serve.gen_late_ms", "lower", "none (validity check)"},
      {"trace.coverage", "higher", "none"},
      {"trace.overhead", "lower", "none"},
  };
  return metrics;
}

[[noreturn]] void Usage() {
  Fatal(
      "usage: tdac_perf --workload NAME --seed N --seconds S --trace 0|1 "
      "--cli PATH --serve PATH --work DIR");
}

std::string MetricsJson(const RunReport& report,
                        const std::vector<std::string>& names) {
  JsonObject metrics;
  for (const std::string& name : names) {
    const Metric* m = report.Find(name);
    if (m == nullptr) Fatal("metric " + name + " was not measured");
    JsonObject entry;
    entry.Add("value", m->value).Add("unit", m->unit);
    metrics.AddRaw(name, entry.str());
  }
  return metrics.str();
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  for (const char* key :
       {"workload", "seed", "seconds", "trace", "cli", "serve", "work"}) {
    if (flags.count(key) == 0) Usage();
  }
  const WorkloadSpec* spec = FindWorkload(flags["workload"]);
  if (spec == nullptr) Fatal("unknown workload '" + flags["workload"] + "'");
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  const int seconds = std::atoi(flags["seconds"].c_str());
  const bool traced = flags["trace"] == "1";
  if (seconds < 1 || (!traced && flags["trace"] != "0")) Usage();

  // A child that dies must surface as a failed write, not kill the harness.
  signal(SIGPIPE, SIG_IGN);

  Tools tools;
  tools.cli = flags["cli"];
  tools.serve = flags["serve"];
  tools.dir = flags["work"] + "/" + spec->name + "-seed" + flags["seed"] +
              "-trace" + flags["trace"] + "-pid" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(tools.dir, ec);
  if (ec) Fatal("cannot create " + tools.dir + ": " + ec.message());

  RunReport report;
  std::string spec_json;
  std::string trace_path;
  if (traced) {
    const Inputs inputs = GenerateInputs(*spec, seed, tools.dir);
    spec_json = SpecJson(*spec, seed, inputs, seconds);
    std::cout << "spec " << spec_json << "\n";
    std::filesystem::create_directories(flags["work"] + "/traces", ec);
    trace_path = flags["work"] + "/traces/" + spec->name + "-seed" +
                 flags["seed"] + ".trace.json";
    report = RunTraced(*spec, inputs, tools, seed, trace_path);
  } else {
    const Prepared prepared = PrepareIsolated(*spec, seed, tools);
    spec_json = SpecJson(*spec, seed, prepared.inputs, seconds);
    std::cout << "spec " << spec_json << "\n";
    report = spec->path == Path::kCli
                 ? RunCliWorkload(*spec, prepared, tools, seconds)
                 : RunDaemonWorkload(*spec, prepared, tools, seconds, seed);
  }

  std::vector<std::string> names;
  if (traced) {
    for (const LayerMetric& m : LayerMetrics()) {
      const Metric* measured = report.Find(m.name);
      if (measured == nullptr) Fatal(std::string("unmeasured ") + m.name);
      const std::string name = m.name;
      std::cout << "layer " << name.substr(0, name.find('.')) << "  " << name
                << " = " << JsonNumber(measured->value) << " "
                << measured->unit << "  (should move: " << m.moves << ")\n";
      if (m.better != nullptr) names.push_back(m.name);
    }
    std::cout << "trace written to " << trace_path << "\n";
  } else {
    for (const Metric& m : report.metrics) {
      bool gated = false;
      for (const std::string& g : EndToEndMetrics()) gated |= g == m.name;
      std::cout << "metric " << spec->name << "  " << m.name << " = "
                << JsonNumber(m.value) << " " << m.unit
                << (gated ? "" : "  (reported, not gated)") << "\n";
    }
    names = EndToEndMetrics();
  }
  for (const std::string& failure : report.failures) {
    std::cerr << "perfbench: FAILED: " << failure << "\n";
  }

  JsonObject record_report;
  for (const Metric& m : report.metrics) {
    JsonObject entry;
    entry.Add("value", m.value).Add("unit", m.unit);
    record_report.AddRaw(m.name, entry.str());
  }
  JsonObject record_samples;
  for (const auto& [name, values] : report.samples) {
    std::string array = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) array += ",";
      array += JsonNumber(values[i]);
    }
    record_samples.AddRaw(name, array + "]");
  }
  JsonObject record;
  record.AddRaw("spec", spec_json)
      .AddRaw("report", record_report.str())
      .AddRaw("samples", record_samples.str())
      .Add("attempted", report.attempted)
      .Add("failed", report.failed);
  std::cout << "record " << record.str() << "\n";

  std::filesystem::remove_all(tools.dir, ec);

  const bool correct = report.failed == 0;
  JsonObject result;
  result.Add("correct", correct)
      .Add("attempted", report.attempted)
      .Add("failed", report.failed)
      .AddRaw("metrics", MetricsJson(report, names));
  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
