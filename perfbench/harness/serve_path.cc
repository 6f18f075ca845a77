// The daemon path: a real `tdac_serve` over pipes, from request line in to
// response line out. Every `ok` response is checked against an in-process
// Discover of the same request shape.
#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "data/dataset_io.h"
#include "data/dataset_view.h"
#include "process.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "td/registry.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Checks one response against its shape's reference; returns an empty
/// string when it matches.
std::string Mismatch(const tdac::ServeResponse& r, const Expected& e,
                     bool expect_cached) {
  if (r.outcome == tdac::ServeResponse::Outcome::kRejected) {
    return "rejected (" + std::string(tdac::StopReasonToString(r.stop_reason)) +
           ")";
  }
  if (r.outcome == tdac::ServeResponse::Outcome::kError) {
    return "error: " + r.status.ToString();
  }
  if (r.degraded()) return "degraded result";
  if (r.items != e.items || r.iterations != e.iterations ||
      r.stop_reason != e.stop) {
    return "items/iterations/stop " + std::to_string(r.items) + "/" +
           std::to_string(r.iterations) + "/" +
           std::string(tdac::StopReasonToString(r.stop_reason)) +
           " differ from the in-process " + std::to_string(e.items) + "/" +
           std::to_string(e.iterations) + "/" +
           std::string(tdac::StopReasonToString(e.stop));
  }
  if (r.cached != expect_cached) {
    return expect_cached ? "repeat not served from the cache"
                         : "uncached request served from the cache";
  }
  return "";
}

std::map<std::string, double> ParseCounters(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || token.compare(0, eq, "id") == 0) continue;
    out[token.substr(0, eq)] = std::strtod(token.c_str() + eq + 1, nullptr);
  }
  return out;
}

/// Drives one daemon: numbered requests per latency class, each response
/// matched to its request by id, timed from the request's anchor (its due
/// time in the open loop, its send time otherwise) to the arrival of its
/// line, and checked against the in-process reference.
class DaemonClient {
 public:
  DaemonClient(const Tools& tools, const WorkloadSpec& spec,
               const Inputs& inputs, const std::vector<RequestShape>& shapes,
               const std::vector<Expected>& expected, RunReport* report)
      : latencies(shapes.size()), shapes_(shapes), expected_(expected),
        inputs_(inputs), report_(report) {
    daemon_ = std::make_unique<Daemon>(
        std::vector<std::string>{
            tools.serve, "--workers=" + std::to_string(spec.workers),
            "--queue-capacity=" + std::to_string(spec.queue_capacity)},
        tools.dir + "/serve.stderr.log");
  }

  Clock::time_point spawned_at() const { return daemon_->spawned_at(); }
  size_t outstanding() const { return pending_.size(); }
  Clock::time_point last_arrival() const { return last_arrival_; }

  /// Sends one request of class `cls`. A default `anchor` means "now".
  void Submit(int cls, bool expect_cached, Clock::time_point anchor = {}) {
    std::string id = "r";
    id += std::to_string(next_id_++);
    const RequestShape& shape = shapes_[static_cast<size_t>(cls)];
    const Clock::time_point sent = daemon_->Send(RequestLine(
        shape, id,
        inputs_.claims_paths[static_cast<size_t>(shape.dataset)]));
    pending_[id] =
        Pending{cls, expect_cached, anchor == Clock::time_point{} ? sent : anchor};
  }

  /// Handles at most one line, waiting up to `timeout_s` for it. Returns
  /// the class of a completed request, or -1.
  int Pump(double timeout_s) {
    Daemon::Line line;
    if (!daemon_->Next(&line, std::max(0.0, timeout_s))) {
      if (daemon_->closed()) Fatal("tdac_serve exited unexpectedly");
      return -1;
    }
    if (line.text.rfind("ok ", 0) != 0 && line.text.rfind("reject ", 0) != 0 &&
        line.text.rfind("error ", 0) != 0) {
      control_.push_back(line.text);
      return -1;
    }
    tdac::Result<tdac::ServeResponse> response =
        tdac::ParseResponseLine(line.text);
    if (!response.ok()) {
      report_->Check(false, "unparseable response: " + line.text);
      return -1;
    }
    auto it = pending_.find(response->id);
    if (it == pending_.end()) {
      report_->Check(false, "response for an unknown id: " + line.text);
      return -1;
    }
    const Pending pending = it->second;
    pending_.erase(it);
    const std::string mismatch =
        Mismatch(*response, expected_[static_cast<size_t>(pending.cls)],
                 pending.expect_cached);
    report_->Check(mismatch.empty(),
                   shapes_[static_cast<size_t>(pending.cls)].name + ": " +
                       mismatch);
    latencies[static_cast<size_t>(pending.cls)].push_back(
        MillisBetween(pending.anchor, line.at));
    last_arrival_ = line.at;
    return pending.cls;
  }

  void WaitAll(double timeout_s) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (!pending_.empty()) {
      if (Clock::now() >= deadline) {
        Fatal(std::to_string(pending_.size()) +
              " daemon requests unanswered after " +
              std::to_string(timeout_s) + " s");
      }
      Pump(SecondsBetween(Clock::now(), deadline));
    }
  }

  /// Sends a control command and waits for its reply line.
  std::string Control(const std::string& command, const std::string& reply) {
    daemon_->Send(command + " id=c" + std::to_string(next_id_++));
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      for (auto it = control_.begin(); it != control_.end(); ++it) {
        if (it->rfind(reply + " ", 0) == 0) {
          std::string line = *it;
          control_.erase(it);
          return line;
        }
      }
      if (Clock::now() >= deadline) Fatal("no '" + reply + "' from daemon");
      Pump(SecondsBetween(Clock::now(), deadline));
    }
  }

  /// Graceful shutdown; the daemon's exit status and ru_maxrss.
  ChildExit Shutdown() {
    WaitAll(60.0);
    Control("shutdown", "bye");
    const ChildExit exit = daemon_->Finish();
    report_->Check(exit.clean(), "tdac_serve " + exit.Describe());
    return exit;
  }

  std::vector<std::vector<double>> latencies;  // per class, ms

 private:
  struct Pending {
    int cls = 0;
    bool expect_cached = false;
    Clock::time_point anchor;
  };

  const std::vector<RequestShape>& shapes_;
  const std::vector<Expected>& expected_;
  const Inputs& inputs_;
  RunReport* report_;
  std::unique_ptr<Daemon> daemon_;
  std::unordered_map<std::string, Pending> pending_;
  std::vector<std::string> control_;
  uint64_t next_id_ = 0;
  Clock::time_point last_arrival_;
};

/// Spawn to `pong`, then one request of every class answered: every
/// dataset loaded, every hit key cached. Returns the set-up seconds.
double WarmUp(DaemonClient* client, size_t classes) {
  client->Control("ping", "pong");
  for (size_t c = 0; c < classes; ++c) {
    client->Submit(static_cast<int>(c), /*expect_cached=*/false);
  }
  client->WaitAll(60.0);
  return SecondsBetween(client->spawned_at(), client->last_arrival());
}

int ClassIndex(const std::vector<RequestShape>& shapes,
               const std::string& name) {
  for (size_t i = 0; i < shapes.size(); ++i) {
    if (shapes[i].name == name) return static_cast<int>(i);
  }
  Fatal("workload has no '" + name + "' request class");
}

/// Request classes for the open loop: exact mix counts in a seeded
/// shuffle, so every run of a seed sends the same sequence.
std::vector<int> MixDeck(const std::vector<double>& mix, size_t count,
                         uint64_t seed) {
  std::vector<int> deck;
  for (size_t c = 0; c < mix.size(); ++c) {
    const size_t n = c + 1 == mix.size()
                         ? count - deck.size()
                         : static_cast<size_t>(mix[c] * count + 0.5);
    deck.insert(deck.end(), n, static_cast<int>(c));
  }
  std::mt19937_64 rng(seed);
  std::shuffle(deck.begin(), deck.end(), rng);
  return deck;
}

/// Fixed-rate open loop over `deck[begin, end)`: request i is due at
/// start + (i - begin) / rate, sent when due, and timed from its due time.
/// Returns how late the generator sent each request, in ms.
std::vector<double> RunOpenLoop(DaemonClient* client,
                                const std::vector<int>& deck, size_t begin,
                                size_t end, double rate, int hit) {
  std::vector<double> lateness_ms;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (size_t i = begin; i < end; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>((i - begin) / rate));
    // Responses wait in the reader thread's queue, stamped on arrival, so
    // this thread only sleeps and sends.
    std::this_thread::sleep_until(due);
    lateness_ms.push_back(MillisBetween(due, Clock::now()));
    client->Submit(deck[i], deck[i] == hit, due);
  }
  client->WaitAll(60.0);
  return lateness_ms;
}

/// Closed loop for `duration_s`: `outstanding` cold requests in flight at
/// all times. Appends the wall time of every complete round of
/// `round_requests` completions; returns the completions and adds the
/// phase's wall time to `*busy_s`.
size_t RunClosedLoop(DaemonClient* client, int cold, int outstanding,
                     int round_requests, double duration_s,
                     std::vector<double>* rounds, double* busy_s) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration_s));
  Clock::time_point round_start = start;
  size_t completions = 0;
  for (int i = 0; i < outstanding; ++i) client->Submit(cold, false);
  while (client->outstanding() > 0) {
    if (client->Pump(60.0) < 0) {
      if (SecondsBetween(client->last_arrival(), Clock::now()) > 60.0) {
        Fatal("closed loop: no response for 60 s");
      }
      continue;
    }
    ++completions;
    if (completions % static_cast<size_t>(round_requests) == 0) {
      rounds->push_back(SecondsBetween(round_start, client->last_arrival()));
      round_start = client->last_arrival();
    }
    if (Clock::now() < end) client->Submit(cold, false);
  }
  *busy_s += SecondsBetween(start, client->last_arrival());
  return completions;
}

tdac::ServeRequest ParsedRequest(const RequestShape& shape,
                                 const std::string& claims) {
  auto command = tdac::ParseCommandLine(RequestLine(shape, "e", claims));
  if (!command.ok()) Fatal(command.status().ToString());
  return command->run;
}

/// A segment whose generator sent more than a tenth of its requests this
/// late has fallen behind its schedule: it offered less than the spec's
/// rate, so its latencies describe another workload and it is invalid. A
/// rarer tail is the VM stalling the generator and the daemon alike (on
/// the reference machine p99 sits near 6 ms while p90 stays under 1 ms).
constexpr double kMaxLateP90Ms = 2.0;
constexpr int kOpenLoopAttempts = 2;

}  // namespace

std::vector<Expected> References(const std::vector<RequestShape>& shapes,
                                 const Inputs& inputs) {
  std::map<int, tdac::Dataset> loaded;
  std::vector<Expected> out;
  for (const RequestShape& shape : shapes) {
    auto it = loaded.find(shape.dataset);
    if (it == loaded.end()) {
      const std::string& path =
          inputs.claims_paths[static_cast<size_t>(shape.dataset)];
      auto dataset = tdac::LoadDataset(path);
      if (!dataset.ok()) Fatal(dataset.status().ToString());
      it = loaded.emplace(shape.dataset, dataset.MoveValue()).first;
    }
    auto algorithm = tdac::MakeAlgorithm(shape.algorithm);
    if (!algorithm.ok()) Fatal(algorithm.status().ToString());
    tdac::Result<tdac::TruthDiscoveryResult> result =
        shape.attrs.empty()
            ? (*algorithm)->Discover(it->second)
            : (*algorithm)->Discover(tdac::DatasetView(it->second, shape.attrs));
    if (!result.ok()) Fatal(result.status().ToString());
    out.push_back(Expected{result->predicted.size(), result->iterations,
                           result->stop_reason});
  }
  return out;
}

RunReport RunDaemonWorkload(const WorkloadSpec& spec, const Prepared& prepared,
                            const Tools& tools, int seconds, uint64_t seed) {
  RunReport report;
  const std::vector<RequestShape>& shapes = spec.shapes;
  const Inputs& inputs = prepared.inputs;
  const std::vector<Expected>& expected = prepared.expected;
  const int cold = ClassIndex(shapes, "cold");
  report.Merge(prepared);

  // setup_s: spawn to ready plus the answered warm-up set, several times.
  std::vector<double> setups;
  std::unique_ptr<DaemonClient> client;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; i < kSetupMinReps ||
                  SecondsBetween(setup_start, Clock::now()) < kSetupSeconds;
       ++i) {
    if (client != nullptr) client->Shutdown();
    client = std::make_unique<DaemonClient>(tools, spec, inputs, shapes,
                                            expected, &report);
    setups.push_back(WarmUp(client.get(), shapes.size()));
  }
  for (auto& l : client->latencies) l.clear();

  // Closed-loop capacity segments alternate with fixed-rate open-loop
  // segments, so both phases sample the whole run rather than one stretch
  // of it; the daemon is idle at every segment boundary.
  const int hit = ClassIndex(shapes, "hit");
  const double capacity_s = spec.capacity_share * seconds;
  const size_t count =
      static_cast<size_t>(spec.rate_rps * (seconds - capacity_s));
  const std::vector<int> deck = MixDeck(spec.mix, count, seed);
  std::vector<double> rounds;
  std::vector<double> lateness_ms;
  size_t completions = 0;
  double busy_s = 0.0;
  std::vector<double>& cold_latencies =
      client->latencies[static_cast<size_t>(cold)];
  for (int segment = 0; segment < spec.segments; ++segment) {
    // Closed-loop requests count toward capacity, not the cold latencies.
    const size_t open_cold = cold_latencies.size();
    completions += RunClosedLoop(client.get(), cold, spec.outstanding,
                                 spec.round_requests,
                                 capacity_s / spec.segments, &rounds, &busy_s);
    cold_latencies.resize(open_cold);
    const size_t begin = count * segment / spec.segments;
    const size_t end = count * (segment + 1) / spec.segments;
    for (int attempt = 1;; ++attempt) {
      std::vector<size_t> kept;
      for (const auto& l : client->latencies) kept.push_back(l.size());
      std::vector<double> late =
          RunOpenLoop(client.get(), deck, begin, end, spec.rate_rps, hit);
      if (Quantile(late, 0.9) <= kMaxLateP90Ms) {
        lateness_ms.insert(lateness_ms.end(), late.begin(), late.end());
        break;
      }
      // The generator, not the daemon, set these latencies: drop them.
      std::cerr << "perfbench: open-loop generator fell behind (lateness p50 "
                << Quantile(late, 0.5) << " p90 " << Quantile(late, 0.9)
                << " p99 " << Quantile(late, 0.99) << " ms); segment invalid\n";
      for (size_t c = 0; c < kept.size(); ++c) {
        client->latencies[c].resize(kept[c]);
      }
      if (attempt == kOpenLoopAttempts) {
        Fatal("open-loop generator fell behind on every attempt; run invalid");
      }
    }
  }
  const double capacity_rps = completions / busy_s;
  report.Check(!rounds.empty(), "no complete closed-loop round");

  const std::map<std::string, double> counters =
      ParseCounters(client->Control("stats", "stats"));
  const ChildExit exit = client->Shutdown();

  report.AddMedian("setup_s", "s", setups);
  report.AddMedian("run_s", "s", rounds);
  report.Add("peak_rss_mb", "MB", exit.maxrss_mb);
  report.Add("capacity_rps", "1/s", capacity_rps);
  for (size_t c = 0; c < shapes.size(); ++c) {
    const std::vector<double>& l = client->latencies[c];
    const double tail = TailPercentile(
        l.size(), shapes[c].name == "hit" ? std::vector<double>{95, 99}
                                          : std::vector<double>{90, 95});
    report.Add(shapes[c].name + "_p50_ms", "ms", Median(l));
    if (tail > 0.0) {
      report.Add(
          shapes[c].name + "_p" + std::to_string(static_cast<int>(tail)) +
              "_ms",
          "ms", Quantile(l, tail / 100.0));
    } else {
      std::cerr << "perfbench: too few " << shapes[c].name
                << " samples for a tail percentile (" << l.size() << ")\n";
    }
    report.Add(shapes[c].name + "_samples", "count",
               static_cast<double>(l.size()));
  }
  report.Add("error_ratio", "ratio",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted));
  report.Add("gen_late_p50_ms", "ms", Quantile(lateness_ms, 0.5));
  report.Add("gen_late_p99_ms", "ms", Quantile(lateness_ms, 0.99));
  report.Add("rounds", "count", static_cast<double>(rounds.size()));
  for (const auto& [counter, name] :
       {std::pair<const char*, const char*>{"executions", "daemon_executions"},
        {"cache-hits", "daemon_cache_hits"},
        {"coalesced", "daemon_coalesced"}}) {
    auto it = counters.find(counter);
    report.Add(name, "count", it == counters.end() ? 0.0 : it->second);
  }
  return report;
}

ServeProbe RunServeProbe(const WorkloadSpec& spec, const Inputs& inputs,
                         const Tools& tools, Tracer* tracer,
                         RunReport* report) {
  ServeProbe probe;
  const std::vector<RequestShape>& shapes = spec.probe_shapes;
  const std::vector<Expected> expected = References(shapes, inputs);
  const int cold = ClassIndex(shapes, "cold");
  const int hit = ClassIndex(shapes, "hit");
  const std::string& cold_claims =
      inputs.claims_paths[static_cast<size_t>(shapes[cold].dataset)];
  const std::string& hit_claims =
      inputs.claims_paths[static_cast<size_t>(shapes[hit].dataset)];
  constexpr int kColdReps = 3;

  {
    // Protocol codec, per call.
    constexpr int kCalls = 20000;
    const std::string line = RequestLine(shapes[hit], "p1", hit_claims);
    tdac::ServeResponse response;
    response.id = "p1";
    response.items = expected[static_cast<size_t>(hit)].items;
    response.iterations = expected[static_cast<size_t>(hit)].iterations;
    response.latency_ms = 0.25;
    response.cached = true;
    size_t sink = 0;
    {
      Tracer::Span span(tracer, "serve.parse");
      for (int i = 0; i < kCalls; ++i) {
        auto parsed = tdac::ParseCommandLine(line);
        sink += parsed.ok() ? parsed->run.attributes.size() : 0;
      }
      probe.parse_us = span.End() * 1000.0 / kCalls;
    }
    {
      Tracer::Span span(tracer, "serve.format");
      for (int i = 0; i < kCalls; ++i) {
        sink += tdac::FormatResponseLine(response).size();
      }
      probe.format_us = span.End() * 1000.0 / kCalls;
    }
    report->Check(sink > 0, "protocol codec produced nothing");
  }

  {
    // The engine in-process: the same shapes without pipes or parsing.
    Tracer::Span span(tracer, "serve.engine");
    tdac::ServeOptions options;
    options.workers = spec.workers;
    options.queue_capacity = spec.queue_capacity;
    tdac::ServeEngine engine(options);
    auto run = [&](int cls, const std::string& claims, bool expect_cached) {
      const Clock::time_point t0 = Clock::now();
      const tdac::ServeResponse r = engine.ExecuteBlocking(
          ParsedRequest(shapes[static_cast<size_t>(cls)], claims));
      const double ms = MillisBetween(t0, Clock::now());
      const std::string mismatch =
          Mismatch(r, expected[static_cast<size_t>(cls)], expect_cached);
      report->Check(mismatch.empty(), "engine: " + mismatch);
      return ms;
    };
    {
      Tracer::Span warm(tracer, "serve.engine_warm");
      run(cold, cold_claims, false);
      run(hit, hit_claims, false);
    }
    std::vector<double> cold_ms;
    std::vector<double> hit_ms;
    {
      Tracer::Span s(tracer, "serve.engine_cold");
      for (int i = 0; i < kColdReps; ++i) {
        cold_ms.push_back(run(cold, cold_claims, false));
      }
    }
    {
      Tracer::Span s(tracer, "serve.engine_hit");
      for (int i = 0; i < spec.probe_hits; ++i) {
        hit_ms.push_back(run(hit, hit_claims, true));
      }
    }
    probe.engine_cold_ms = Median(cold_ms);
    probe.engine_hit_ms = Median(hit_ms);
  }

  {
    // The daemon: the same shapes through pipes, parsing and formatting.
    Tracer::Span span(tracer, "serve.daemon");
    DaemonClient client(tools, spec, inputs, shapes, expected, report);
    {
      Tracer::Span warm(tracer, "serve.daemon_warm");
      WarmUp(&client, shapes.size());
    }
    for (auto& l : client.latencies) l.clear();
    {
      Tracer::Span s(tracer, "serve.daemon_cold");
      for (int i = 0; i < kColdReps; ++i) {
        client.Submit(cold, false);
        client.WaitAll(60.0);
      }
    }
    std::vector<double> lateness_ms;
    {
      // Hits only, at the spec's fixed probe rate.
      Tracer::Span s(tracer, "serve.daemon_hit");
      const std::vector<int> deck(static_cast<size_t>(spec.probe_hits), hit);
      lateness_ms = RunOpenLoop(&client, deck, 0, deck.size(),
                                spec.probe_rate_rps, hit);
    }
    const std::map<std::string, double> counters =
        ParseCounters(client.Control("stats", "stats"));
    client.Shutdown();
    probe.daemon_cold_ms = Median(client.latencies[static_cast<size_t>(cold)]);
    probe.daemon_hit_ms = Median(client.latencies[static_cast<size_t>(hit)]);
    auto counter = [&](const char* name) {
      auto it = counters.find(name);
      return it == counters.end() ? 0.0 : it->second;
    };
    const double completed = counter("completed");
    probe.hit_ratio = completed > 0 ? counter("cache-hits") / completed : 0.0;
    probe.executions = counter("executions");
    probe.coalesced = counter("coalesced");
    probe.resident_mb = counter("dataset-cache-bytes") / (1024.0 * 1024.0);
    probe.gen_late_ms = Quantile(lateness_ms, 0.99);
  }
  return probe;
}

}  // namespace perfbench
