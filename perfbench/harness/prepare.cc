// In-process preparation for a measured run, in a forked child: generate
// the inputs, time the CLI path's ingestion (setup_s) and compute the
// references every output is checked against.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/csv.h"
#include "data/dataset_io.h"
#include "td/registry.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Share of planted-truth items whose predicted value equals the truth.
double Accuracy(const tdac::GroundTruth& predicted,
                const tdac::GroundTruth& truth) {
  if (truth.empty()) return 0.0;
  size_t correct = 0;
  for (const auto& [key, value] : truth.items()) {  // lint: unordered-ok
    const tdac::Value* got = predicted.Get(tdac::ObjectFromKey(key),
                                           tdac::AttributeFromKey(key));
    if (got != nullptr && *got == value) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(truth.size());
}

void WaitForChild(pid_t pid, const char* what) {
  int status = 0;
  pid_t waited = -1;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fatal(std::string(what) + " failed");
  }
}

/// One setup_s sample: LoadDataset in a fresh forked process, which pays
/// the same first-touch page faults a `tdac_cli run` does, and whose heap
/// holds nothing left over from generating the inputs.
double TimedLoad(const std::string& claims) {
  int fds[2];
  if (pipe(fds) != 0) Fatal("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) Fatal("fork failed");
  if (pid == 0) {
    close(fds[0]);
    const Clock::time_point t0 = Clock::now();
    const bool ok = tdac::LoadDataset(claims).ok();
    const double seconds = ok ? SecondsBetween(t0, Clock::now()) : -1.0;
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) ==
                      static_cast<ssize_t>(sizeof(seconds));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  const ssize_t got = read(fds[0], &seconds, sizeof(seconds));
  close(fds[0]);
  WaitForChild(pid, "timed load");
  if (got != static_cast<ssize_t>(sizeof(seconds)) || seconds < 0.0) {
    Fatal("cannot load " + claims);
  }
  return seconds;
}

/// The workload's algorithm in-process on the CLI path's file: its output
/// bytes, and their accuracy against the planted truth, are the reference.
void PrepareCli(const WorkloadSpec& spec, const Tools& tools,
                Prepared* out) {
  tdac::Result<tdac::Dataset> loaded =
      tdac::LoadDataset(out->inputs.claims_paths[0]);
  if (!loaded.ok()) Fatal(loaded.status().ToString());
  const tdac::Dataset dataset = loaded.MoveValue();

  auto base = tdac::MakeAlgorithm(spec.algorithm);
  if (!base.ok()) Fatal(base.status().ToString());
  const std::unique_ptr<tdac::TruthDiscovery> wrapped =
      MakeWorkloadAlgorithm(spec, base->get());
  const tdac::TruthDiscovery& algorithm =
      wrapped != nullptr ? *wrapped : **base;
  auto result = algorithm.Discover(dataset);
  if (!result.ok()) Fatal(result.status().ToString());
  const std::string bytes = tdac::GroundTruthToCsv(result->predicted, dataset);
  out->reference_path = tools.dir + "/reference.csv";
  const tdac::Status written = tdac::WriteFile(out->reference_path, bytes);
  if (!written.ok()) Fatal(written.ToString());

  // The accuracy of exactly these bytes, read back the way --out is.
  auto resolved = tdac::GroundTruthFromCsv(bytes, dataset);
  auto truth = tdac::LoadGroundTruth(out->inputs.truth_paths[0], dataset);
  if (!resolved.ok() || !truth.ok()) Fatal("cannot read the reference back");
  out->accuracy = Accuracy(*resolved, *truth);
  ++out->attempted;
  if (out->accuracy < spec.min_accuracy) {
    out->failures.push_back("accuracy " + std::to_string(out->accuracy) +
                            " below the spec floor " +
                            std::to_string(spec.min_accuracy));
  }
}

void Write(const Prepared& p, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out.precision(17);
  for (size_t i = 0; i < p.inputs.claims_paths.size(); ++i) {
    out << "input\t" << p.inputs.claims_paths[i] << "\t"
        << p.inputs.truth_paths[i] << "\t" << p.inputs.claims[i] << "\t"
        << p.inputs.bytes[i] << "\n";
  }
  out << "reference\t" << p.reference_path << "\n";
  out << "accuracy\t" << p.accuracy << "\n";
  for (const Expected& e : p.expected) {
    out << "expected\t" << e.items << "\t" << e.iterations << "\t"
        << static_cast<int>(e.stop) << "\n";
  }
  out << "attempted\t" << p.attempted << "\n";
  for (const std::string& f : p.failures) out << "fail\t" << f << "\n";
  out.close();
  if (!out) Fatal("cannot write " + path);
}

Prepared Read(const std::string& path) {
  std::ifstream in(path);
  if (!in) Fatal("cannot read " + path);
  Prepared p;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> f;
    std::istringstream fields(line);
    for (std::string field; std::getline(fields, field, '\t');) {
      f.push_back(field);
    }
    if (f.empty()) continue;
    if (f[0] == "input" && f.size() == 5) {
      p.inputs.claims_paths.push_back(f[1]);
      p.inputs.truth_paths.push_back(f[2]);
      p.inputs.claims.push_back(std::stoull(f[3]));
      p.inputs.bytes.push_back(std::stoull(f[4]));
    } else if (f[0] == "reference") {
      p.reference_path = f.size() > 1 ? f[1] : "";
    } else if (f[0] == "accuracy" && f.size() == 2) {
      p.accuracy = std::stod(f[1]);
    } else if (f[0] == "expected" && f.size() == 4) {
      p.expected.push_back(Expected{std::stoull(f[1]), std::stoi(f[2]),
                                    static_cast<tdac::StopReason>(
                                        std::stoi(f[3]))});
    } else if (f[0] == "attempted" && f.size() == 2) {
      p.attempted = std::stoll(f[1]);
    } else if (f[0] == "fail") {
      p.failures.push_back(f.size() > 1 ? f[1] : "");
    } else {
      Fatal("malformed line in " + path + ": " + line);
    }
  }
  return p;
}

}  // namespace

Prepared PrepareIsolated(const WorkloadSpec& spec, uint64_t seed,
                         const Tools& tools) {
  const std::string path = tools.dir + "/prepared.tsv";
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) Fatal("fork failed");
  if (pid == 0) {
    Prepared p;
    p.inputs = GenerateInputs(spec, seed, tools.dir);
    if (spec.path == Path::kCli) {
      PrepareCli(spec, tools, &p);
    } else {
      p.expected = References(spec.shapes, p.inputs);
    }
    Write(p, path);
    std::cerr.flush();
    _exit(0);
  }
  WaitForChild(pid, "preparing the inputs");
  Prepared prepared = Read(path);
  if (spec.path == Path::kCli) {
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(prepared.setup_s.size()) < kSetupMinReps ||
           SecondsBetween(start, Clock::now()) < kSetupSeconds) {
      prepared.setup_s.push_back(TimedLoad(prepared.inputs.claims_paths[0]));
    }
  }
  return prepared;
}

}  // namespace perfbench
