// The three kinds of run the harness makes: the CLI path, the daemon path
// (both untraced, end-to-end metrics) and the traced layer run.
#ifndef TDAC_PERFBENCH_WORKLOADS_H_
#define TDAC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/run_guard.h"
#include "spec.h"
#include "util.h"

namespace perfbench {

/// Where the programs are and where a run may write.
struct Tools {
  std::string cli;    // tdac_cli
  std::string serve;  // tdac_serve
  std::string dir;    // this run's scratch directory
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run measured and how many of its operations were wrong.
struct RunReport {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  /// The samples behind a median metric, by metric name, for the record.
  std::vector<std::pair<std::string, std::vector<double>>> samples;

  void Add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back(Metric{name, unit, value});
  }
  /// Adds the median of `values` as a metric and keeps the samples.
  void AddMedian(const std::string& name, const std::string& unit,
                 const std::vector<double>& values) {
    Add(name, unit, Median(values));
    samples.emplace_back(name, values);
  }
  const Metric* Find(const std::string& name) const;
  /// Counts one failed operation and keeps its message.
  void Fail(const std::string& message);
  /// Counts one checked operation; a false `ok` also counts a failure.
  void Check(bool ok, const std::string& message);
  /// Adds the checks made while preparing.
  void Merge(const struct Prepared& prepared);
};

/// What an `ok` daemon response for one request shape must report.
struct Expected {
  size_t items = 0;
  int iterations = 0;
  tdac::StopReason stop = tdac::StopReason::kConverged;
};

/// In-process Discover of every shape, on the same files the daemon reads.
std::vector<Expected> References(const std::vector<RequestShape>& shapes,
                                 const Inputs& inputs);

/// What a measured run needs from in-process work: the generated inputs,
/// and for the CLI path the ingestion timings (setup_s) and the reference
/// output, for the daemon path the per-shape references.
struct Prepared {
  Inputs inputs;
  std::vector<double> setup_s;
  std::string reference_path;  // the bytes every --out file must equal
  double accuracy = 0.0;       // of the reference bytes, vs planted truth
  std::vector<Expected> expected;
  int64_t attempted = 0;
  std::vector<std::string> failures;
};

/// Prepares in forked children: one generates the inputs and computes the
/// references and hands them back through a file in `tools.dir`; for the
/// CLI path, more each time a setup_s load. The memory the preparation
/// touches then never raises the ru_maxrss of a program this process
/// spawns afterwards.
Prepared PrepareIsolated(const WorkloadSpec& spec, uint64_t seed,
                         const Tools& tools);

RunReport RunCliWorkload(const WorkloadSpec& spec, const Prepared& prepared,
                         const Tools& tools, int seconds);

RunReport RunDaemonWorkload(const WorkloadSpec& spec, const Prepared& prepared,
                            const Tools& tools, int seconds, uint64_t seed);

/// Per-layer metrics from timed calls into each layer's public functions,
/// on the workload's own inputs. Writes the spans to `trace_path`.
RunReport RunTraced(const WorkloadSpec& spec, const Inputs& inputs,
                    const Tools& tools, uint64_t seed,
                    const std::string& trace_path);

/// The daemon and engine side of the traced run: the workload's probe
/// shapes through an in-process ServeEngine and through tdac_serve.
struct ServeProbe {
  double parse_us = 0.0;
  double format_us = 0.0;
  double engine_cold_ms = 0.0;
  double engine_hit_ms = 0.0;
  double daemon_cold_ms = 0.0;
  double daemon_hit_ms = 0.0;
  double hit_ratio = 0.0;
  double executions = 0.0;
  double coalesced = 0.0;
  double resident_mb = 0.0;
  double gen_late_ms = 0.0;
};

class Tracer;
ServeProbe RunServeProbe(const WorkloadSpec& spec, const Inputs& inputs,
                         const Tools& tools, Tracer* tracer,
                         RunReport* report);

}  // namespace perfbench

#endif  // TDAC_PERFBENCH_WORKLOADS_H_
