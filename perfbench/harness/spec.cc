#include "spec.h"

#include "common/csv.h"
#include "common/status.h"
#include "data/dataset_io.h"
#include "gen/exam.h"
#include "gen/synthetic.h"
#include "tdac/tdac.h"
#include "tdac/tdoc.h"
#include "util.h"

namespace perfbench {
namespace {

std::vector<int> Range(int begin, int end) {
  std::vector<int> out;
  for (int i = begin; i < end; ++i) out.push_back(i);
  return out;
}

RequestShape Shape(std::string name, int dataset, std::string algorithm,
                   std::vector<int> attrs, bool no_cache) {
  RequestShape shape;
  shape.name = std::move(name);
  shape.dataset = dataset;
  shape.algorithm = std::move(algorithm);
  shape.attrs = std::move(attrs);
  shape.no_cache = no_cache;
  return shape;
}

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w;
    w.name = "tall_mv";
    w.why = "1.2M claims through MajorityVote: ingestion (read, CSV parse, "
            "build) is most of the wall time, so common and data dominate";
    w.datasets = {{"tall", "ds2", 20000}};
    w.algorithm = "MajorityVote";
    w.min_accuracy = 0.5;
    w.probe_shapes = {Shape("cold", 0, "MajorityVote", {}, true),
                      Shape("hit", 0, "MajorityVote", {0, 1, 2}, false)};
    w.probe_hits = 100;
    w.probe_rate_rps = 40.0;
    out.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "exam_tdac";
    w.why = "the paper's Table 7 exam124 shape under TD-AC at 2 threads: the "
            "k sweep over [2,123] and the per-group runs dominate";
    w.datasets = {{"exam", "exam124", 0}};
    w.algorithm = "Accu";
    w.mode = Mode::kTdac;
    w.threads = 2;
    w.min_accuracy = 0.5;
    w.probe_shapes = {Shape("cold", 0, "Accu", {}, true),
                      Shape("hit", 0, "Accu", Range(0, 62), false)};
    out.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "objects_tdoc";
    w.why = "2000 ds2 objects under TD-OC over MajorityVote: the only "
            "workload running tdac/tdoc.cc and object-axis views";
    w.datasets = {{"objects", "ds2", 2000}};
    // MajorityVote, not Accu: Accu's iteration count on ds2 swings from 4
    // to 20 with the seed, which made run_s spread ~20% across seeds; with
    // one iteration per base run the object sweep dominates and is steady.
    w.algorithm = "MajorityVote";
    w.mode = Mode::kTdoc;
    w.min_accuracy = 0.5;
    w.probe_shapes = {Shape("cold", 0, "MajorityVote", {}, true),
                      Shape("hit", 0, "MajorityVote", {0, 1, 2}, false)};
    out.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "serve_mix";
    w.why = "tdac_serve with 2 workers on three cached datasets: warm-up, "
            "closed-loop capacity, then a fixed-rate hit/cold/view mix";
    w.path = Path::kDaemon;
    w.datasets = {{"view", "ds2", 1600}, {"cold", "ds2", 800},
                  {"hit", "exam124", 0}};
    w.algorithm = "MajorityVote";
    w.workers = 2;
    // Deep enough that a scheduling stall on a shared machine shows up as
    // latency rather than as Overloaded rejections.
    w.queue_capacity = 256;
    // Uncached classes run MajorityVote: its one iteration makes their cost
    // a function of the shape alone, where Accu's seed-dependent iteration
    // count would move capacity from seed to seed. Hits replay a cached
    // Accu result; their cost does not depend on the algorithm.
    w.shapes = {Shape("hit", 2, "Accu", Range(0, 62), false),
                Shape("cold", 1, "MajorityVote", {}, true),
                Shape("view", 0, "MajorityVote", {0, 1, 2}, true)};
    w.mix = {0.7, 0.15, 0.15};
    w.rate_rps = 250.0;
    w.outstanding = 3;
    w.round_requests = 40;
    w.capacity_share = 0.6;
    w.segments = 5;
    w.probe_shapes = {w.shapes[1], w.shapes[0]};
    out.push_back(std::move(w));
  }
  return out;
}

std::string ModeName(Mode mode) {
  switch (mode) {
    case Mode::kBase:
      return "base";
    case Mode::kTdac:
      return "tdac";
    case Mode::kTdoc:
      return "tdoc";
  }
  return "base";
}

std::string AttrsText(const std::vector<int>& attrs) {
  std::string out;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(attrs[i]);
  }
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = BuildWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      const std::string& dir) {
  Inputs inputs;
  for (size_t i = 0; i < spec.datasets.size(); ++i) {
    const DatasetSpec& d = spec.datasets[i];
    // Each file gets its own generator seed, derived from the run seed.
    const uint64_t data_seed = seed * 1000003ULL + i;
    tdac::Dataset dataset;
    tdac::GroundTruth truth;
    if (d.shape == "ds2") {
      auto config = tdac::PaperSyntheticConfig(2, data_seed);
      if (!config.ok()) Fatal(config.status().ToString());
      config->num_objects = d.objects;
      auto data = tdac::GenerateSynthetic(*config);
      if (!data.ok()) Fatal(data.status().ToString());
      dataset = std::move(data->dataset);
      truth = std::move(data->truth);
    } else if (d.shape == "exam124") {
      tdac::ExamConfig config;
      config.num_questions = 124;
      config.seed = data_seed;
      auto data = tdac::GenerateExam(config);
      if (!data.ok()) Fatal(data.status().ToString());
      dataset = std::move(data->dataset);
      truth = std::move(data->truth);
    } else {
      Fatal("unknown dataset shape " + d.shape);
    }
    const std::string claims_path = dir + "/" + d.file + ".claims.csv";
    const std::string truth_path = dir + "/" + d.file + ".truth.csv";
    const std::string csv = tdac::DatasetToCsv(dataset);
    tdac::Status s = tdac::WriteFile(claims_path, csv);
    if (!s.ok()) Fatal(s.ToString());
    s = tdac::SaveGroundTruth(truth, dataset, truth_path);
    if (!s.ok()) Fatal(s.ToString());
    inputs.claims_paths.push_back(claims_path);
    inputs.truth_paths.push_back(truth_path);
    inputs.claims.push_back(dataset.num_claims());
    inputs.bytes.push_back(csv.size());
  }
  return inputs;
}

std::string SpecJson(const WorkloadSpec& spec, uint64_t seed,
                     const Inputs& inputs, int seconds) {
  std::string datasets = "[";
  for (size_t i = 0; i < spec.datasets.size(); ++i) {
    JsonObject d;
    d.Add("file", spec.datasets[i].file)
        .Add("shape", spec.datasets[i].shape)
        .Add("objects", spec.datasets[i].objects)
        .Add("claims", inputs.claims[i])
        .Add("bytes", inputs.bytes[i]);
    if (i > 0) datasets += ",";
    datasets += d.str();
  }
  datasets += "]";
  JsonObject out;
  out.Add("workload", spec.name)
      .Add("why", spec.why)
      .Add("seed", static_cast<int64_t>(seed))
      .Add("seconds", seconds)
      .Add("path", spec.path == Path::kCli ? "tdac_cli run" : "tdac_serve")
      .AddRaw("datasets", datasets);
  if (spec.path == Path::kCli) {
    out.Add("algorithm", spec.algorithm)
        .Add("mode", ModeName(spec.mode))
        .Add("threads", spec.threads)
        .Add("min_accuracy", spec.min_accuracy);
  } else {
    std::string shapes = "[";
    for (size_t i = 0; i < spec.shapes.size(); ++i) {
      const RequestShape& s = spec.shapes[i];
      JsonObject j;
      j.Add("class", s.name)
          .Add("dataset", spec.datasets[static_cast<size_t>(s.dataset)].file)
          .Add("algorithm", s.algorithm)
          .Add("attrs", AttrsText(s.attrs))
          .Add("no_cache", s.no_cache)
          .Add("mix", spec.mix[i]);
      if (i > 0) shapes += ",";
      shapes += j.str();
    }
    shapes += "]";
    out.Add("workers", spec.workers)
        .AddRaw("daemon_flags",
                JsonStringArray({"--workers=" + std::to_string(spec.workers),
                                 "--queue-capacity=" +
                                     std::to_string(spec.queue_capacity)}))
        .AddRaw("classes", shapes)
        .Add("rate_rps", spec.rate_rps)
        .Add("outstanding", spec.outstanding)
        .Add("round_requests", spec.round_requests)
        .Add("capacity_share", spec.capacity_share)
        .Add("segments", spec.segments);
  }
  out.Add("setup_min_reps", kSetupMinReps)
      .Add("setup_seconds", kSetupSeconds)
      .Add("probe_hits", spec.probe_hits)
      .Add("probe_rate_rps", spec.probe_rate_rps);
  return out.str();
}

std::unique_ptr<tdac::TruthDiscovery> MakeWorkloadAlgorithm(
    const WorkloadSpec& spec, const tdac::TruthDiscovery* base) {
  if (spec.mode == Mode::kTdac) {
    tdac::TdacOptions options;
    options.base = base;
    options.threads = spec.threads;
    return std::make_unique<tdac::Tdac>(options);
  }
  if (spec.mode == Mode::kTdoc) {
    tdac::TdocOptions options;
    options.base = base;
    return std::make_unique<tdac::Tdoc>(options);
  }
  return nullptr;
}

std::string RequestLine(const RequestShape& shape, const std::string& id,
                        const std::string& claims_path) {
  std::string line = "run id=" + id + " claims=" + claims_path +
                     " algorithm=" + shape.algorithm;
  if (!shape.attrs.empty()) line += " attrs=" + AttrsText(shape.attrs);
  if (shape.no_cache) line += " no-cache=1";
  return line;
}

}  // namespace perfbench
