// Workload specs (what is generated and how it is driven) and the inputs
// generated from them. Each run prints its spec next to its report, so a
// number can always be traced back to the exact inputs that produced it.
#ifndef TDAC_PERFBENCH_SPEC_H_
#define TDAC_PERFBENCH_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "td/truth_discovery.h"

namespace perfbench {

/// One generated claims file.
struct DatasetSpec {
  std::string file;   // file stem inside the run directory
  std::string shape;  // "ds2" (paper synthetic DS2) or "exam124"
  int objects = 0;    // ds2 only: number of objects (60 claims each)
};

/// One fixed request shape sent to the daemon: a latency class.
struct RequestShape {
  std::string name;          // "hit", "cold" or "view"
  int dataset = 0;           // index into WorkloadSpec::datasets
  std::string algorithm;     // registered base algorithm
  std::vector<int> attrs;    // attrs= restriction; empty = whole dataset
  bool no_cache = false;     // no-cache=1
};

/// setup_s is the median of set-ups repeated at least this many times and
/// for at least this long, so it spans more than one moment of a shared
/// machine.
constexpr int kSetupMinReps = 3;
constexpr double kSetupSeconds = 3.0;

enum class Path { kCli, kDaemon };
enum class Mode { kBase, kTdac, kTdoc };

struct WorkloadSpec {
  std::string name;
  std::string why;  // one sentence: which layers this workload stresses
  Path path = Path::kCli;
  std::vector<DatasetSpec> datasets;

  // CLI path: `tdac_cli run --claims=<datasets[0]> --algorithm=<algorithm>
  // [--tdac --threads=N | --tdoc] --out=FILE`.
  std::string algorithm;
  Mode mode = Mode::kBase;
  int threads = 1;
  /// Planted-truth accuracy below this fails the run (a sanity floor; the
  /// exact value is checked against an in-process run of the same seed).
  double min_accuracy = 0.0;

  // Daemon path: `tdac_serve --workers=N --queue-capacity=Q`.
  int workers = 2;
  int queue_capacity = 8;
  /// Latency classes; `mix` holds their open-loop proportions.
  std::vector<RequestShape> shapes;
  std::vector<double> mix;
  /// Fixed open-loop rate (requests/s), about half the cold-request
  /// capacity of the reference 4-vCPU VM; never derived at run time.
  double rate_rps = 0.0;
  /// Closed loop: requests kept outstanding, requests per timed round, and
  /// the share of --seconds spent in that phase (the open loop gets the
  /// rest). The two phases alternate `segments` times.
  int outstanding = 2;
  int round_requests = 0;
  double capacity_share = 0.0;
  int segments = 1;

  /// Daemon probe shapes for the traced run (cold first, then hit), and
  /// the hit count and fixed rate of its open loop: low enough that hits
  /// never queue, since a hit on a large view fingerprints the view.
  std::vector<RequestShape> probe_shapes;
  int probe_hits = 300;
  double probe_rate_rps = 500.0;
};

/// All workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Files generated for one run.
struct Inputs {
  std::vector<std::string> claims_paths;
  std::vector<std::string> truth_paths;
  std::vector<size_t> claims;
  std::vector<size_t> bytes;
};

/// Generates every dataset of `spec` from `seed` into `dir`. The same seed
/// gives byte-identical files.
Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      const std::string& dir);

/// The spec, its seed and its generated inputs as a JSON object.
std::string SpecJson(const WorkloadSpec& spec, uint64_t seed,
                     const Inputs& inputs, int seconds);

/// The algorithm `spec` runs on the CLI path, built in-process exactly as
/// `tdac_cli run` builds it. `base` must outlive the returned object.
std::unique_ptr<tdac::TruthDiscovery> MakeWorkloadAlgorithm(
    const WorkloadSpec& spec, const tdac::TruthDiscovery* base);

/// The daemon request line for `shape` (ids are per request).
std::string RequestLine(const RequestShape& shape, const std::string& id,
                        const std::string& claims_path);

}  // namespace perfbench

#endif  // TDAC_PERFBENCH_SPEC_H_
