// The CLI path: a real `tdac_cli run ... --out=FILE` child per repetition,
// from claims file on disk to truths written, each --out file checked byte
// for byte against an in-process run of the same algorithm on the file.
#include <cstdio>

#include "common/csv.h"
#include "process.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// CLI repetitions per run at least, even past --seconds.
constexpr int kMinReps = 3;

std::vector<std::string> CliArgv(const WorkloadSpec& spec,
                                 const Tools& tools,
                                 const std::string& claims,
                                 const std::string& out) {
  std::vector<std::string> argv = {tools.cli, "run", "--claims=" + claims,
                                   "--algorithm=" + spec.algorithm};
  if (spec.mode == Mode::kTdac) {
    argv.push_back("--tdac");
    argv.push_back("--threads=" + std::to_string(spec.threads));
  } else if (spec.mode == Mode::kTdoc) {
    argv.push_back("--tdoc");
  }
  argv.push_back("--out=" + out);
  return argv;
}

}  // namespace

const Metric* RunReport::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void RunReport::Fail(const std::string& message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(message);
}

void RunReport::Check(bool ok, const std::string& message) {
  ++attempted;
  if (!ok) Fail(message);
}

void RunReport::Merge(const Prepared& prepared) {
  attempted += prepared.attempted;
  for (const std::string& failure : prepared.failures) Fail(failure);
}

RunReport RunCliWorkload(const WorkloadSpec& spec, const Prepared& prepared,
                         const Tools& tools, int seconds) {
  RunReport report;
  report.Merge(prepared);
  tdac::Result<std::string> expected =
      tdac::ReadFileToString(prepared.reference_path);
  if (!expected.ok()) Fatal(expected.status().ToString());

  const std::string out = tools.dir + "/resolved.csv";
  const std::string log = tools.dir + "/cli.log";
  const std::vector<std::string> argv =
      CliArgv(spec, tools, prepared.inputs.claims_paths[0], out);
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> rss;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(seconds);
  while (static_cast<int>(walls.size()) < kMinReps ||
         Clock::now() < deadline) {
    std::remove(out.c_str());
    const ChildExit exit = RunChild(argv, log);
    walls.push_back(exit.wall_s);
    cpus.push_back(exit.cpu_s);
    rss.push_back(exit.maxrss_mb);
    if (!exit.clean()) {
      report.Check(false, "tdac_cli run: " + exit.Describe() + " (see " +
                              log + ")");
      continue;
    }
    // Equal bytes also mean equal accuracy: the reference's accuracy was
    // computed from these bytes read back.
    tdac::Result<std::string> written = tdac::ReadFileToString(out);
    report.Check(written.ok() && *written == *expected,
                 "--out differs from the in-process result");
  }

  report.AddMedian("setup_s", "s", prepared.setup_s);
  report.AddMedian("run_s", "s", walls);
  report.AddMedian("peak_rss_mb", "MB", rss);
  report.Add("accuracy", "ratio", prepared.accuracy);
  report.Add("error_ratio", "ratio",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted));
  report.Add("run_cpu_s", "s", Median(cpus));
  report.Add("reps", "count", static_cast<double>(walls.size()));
  return report;
}

}  // namespace perfbench
