// bench_serve_load — seeded open-loop load generator for the serving
// engine (docs/serving.md).
//
// Drives a ServeEngine (the core behind tdac_serve) through four phases
// with a configurable, seeded action mix — repeat requests that should hit
// the result cache, distinct-restriction requests that build views, and
// uncacheable heavy requests — at an *open-loop* arrival rate: requests
// are submitted on the clock schedule whether or not earlier ones have
// completed, which is what actually exercises admission control.
//
//   warmup    caches fill; also measures the cold-vs-cached latency ratio
//   steady    arrivals at ~half the engine's service capacity
//   overload  arrivals at 4x the admission limit's capacity — the engine
//             must shed with `Overloaded` rejections, never deadlock
//   recovery  back to the steady rate — rejections must stop
//
// Each phase reports throughput, latency percentiles (p50/p95/p99), and
// the reject rate; everything lands in BENCH_serve.json via --export-dir.
// Offered load is derived from --delay-ms (the synthetic per-request
// execution cost), so the bench stresses the same code path at any scale.

#include <stdlib.h>  // mkdtemp

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "data/dataset_io.h"
#include "gen/synthetic.h"
#include "serve/engine.h"
#include "serve/protocol.h"

namespace {

using tdac_bench::BenchArgs;
using tdac_bench::JsonRecord;

struct PhaseStats {
  std::string name;
  int sent = 0;
  int ok = 0;
  int rejected = 0;
  int errors = 0;
  int cached = 0;
  int coalesced = 0;
  int degraded = 0;
  double seconds = 0.0;
  std::vector<double> latencies_ms;  // terminal responses of any outcome

  double Percentile(double p) const {
    if (latencies_ms.empty()) return 0.0;
    std::vector<double> sorted = latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }
};

/// Runs one open-loop phase: `count` requests drawn from `make_request`,
/// arriving every `interarrival_ms`. Blocks until every response landed.
PhaseStats RunPhase(tdac::ServeEngine& engine, const std::string& name,
                    int count, double interarrival_ms,
                    const std::function<tdac::ServeRequest(int)>& make_request) {
  PhaseStats stats;
  stats.name = name;
  stats.sent = count;

  std::mutex mutex;
  std::condition_variable done_cv;
  int outstanding = 0;

  const tdac::WallTimer timer;
  for (int i = 0; i < count; ++i) {
    // Open loop: submission time is dictated by the schedule alone.
    const double due_ms = static_cast<double>(i) * interarrival_ms;
    const double wait_ms = due_ms - timer.ElapsedMillis();
    if (wait_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wait_ms));
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++outstanding;
    }
    engine.Submit(make_request(i), [&](const tdac::ServeResponse& response) {
      std::lock_guard<std::mutex> lock(mutex);
      stats.latencies_ms.push_back(response.latency_ms);
      switch (response.outcome) {
        case tdac::ServeResponse::Outcome::kOk:
          ++stats.ok;
          if (response.cached) ++stats.cached;
          if (response.coalesced) ++stats.coalesced;
          if (response.degraded()) ++stats.degraded;
          break;
        case tdac::ServeResponse::Outcome::kRejected:
          ++stats.rejected;
          break;
        case tdac::ServeResponse::Outcome::kError:
          ++stats.errors;
          break;
      }
      --outstanding;
      done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  done_cv.wait(lock, [&]() { return outstanding == 0; });
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

JsonRecord PhaseRecord(const PhaseStats& s) {
  JsonRecord record;
  record.Set("phase", s.name)
      .Set("sent", s.sent)
      .Set("ok", s.ok)
      .Set("rejected", s.rejected)
      .Set("errors", s.errors)
      .Set("cached", s.cached)
      .Set("coalesced", s.coalesced)
      .Set("degraded", s.degraded)
      .Set("reject_rate",
           s.sent > 0 ? static_cast<double>(s.rejected) / s.sent : 0.0)
      .Set("throughput_rps",
           s.seconds > 0 ? static_cast<double>(s.ok) / s.seconds : 0.0)
      .Set("p50_ms", s.Percentile(50))
      .Set("p95_ms", s.Percentile(95))
      .Set("p99_ms", s.Percentile(99));
  return record;
}

void PrintPhase(const PhaseStats& s) {
  std::cout << "phase " << s.name << ": sent=" << s.sent << " ok=" << s.ok
            << " rejected=" << s.rejected << " errors=" << s.errors
            << " cached=" << s.cached << " coalesced=" << s.coalesced
            << " degraded=" << s.degraded << " p50=" << s.Percentile(50)
            << "ms p95=" << s.Percentile(95) << "ms p99=" << s.Percentile(99)
            << "ms\n";
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = tdac_bench::ParseArgs(argc, argv);
  const int objects = args.objects > 0 ? args.objects : 40;
  const int requests_per_phase = args.full ? 400 : 80;
  const double delay_ms = 10.0;  // synthetic per-request execution cost

  // Generate a handful of small datasets to serve (distinct content, so
  // distinct fingerprints and cache identities). They are scratch input,
  // not results — keep them out of the working directory.
  char scratch_template[] = "/tmp/bench_serve_XXXXXX";
  const char* scratch_dir = mkdtemp(scratch_template);
  if (scratch_dir == nullptr) {
    std::cerr << "cannot create scratch dir\n";
    return 1;
  }
  const int kDatasets = 3;
  std::vector<std::string> claim_paths;
  for (int d = 0; d < kDatasets; ++d) {
    auto config = tdac::PaperSyntheticConfig(1, args.seed + d);
    if (!config.ok()) {
      std::cerr << "config failed: " << config.status() << "\n";
      return 1;
    }
    config->num_objects = objects;
    auto data = tdac::GenerateSynthetic(*config);
    if (!data.ok()) {
      std::cerr << "generate failed: " << data.status() << "\n";
      return 1;
    }
    const std::string path = std::string(scratch_dir) + "/bench_serve_claims" +
                             std::to_string(d) + ".csv";
    if (tdac::Status s = tdac::SaveDataset(data->dataset, path); !s.ok()) {
      std::cerr << "cannot write " << path << ": " << s << "\n";
      return 1;
    }
    claim_paths.push_back(path);
  }

  tdac::ServeOptions options;
  options.workers = 2;
  options.queue_capacity = 4;
  options.execution_delay_ms = delay_ms;
  tdac::ServeEngine engine(options);
  const int admission_limit = options.workers + options.queue_capacity;

  // Service capacity of the synthetic workload: each cold execution costs
  // ~delay_ms on one of `workers` lanes.
  const double capacity_rps = 1000.0 / delay_ms * options.workers;

  auto base_request = [&](const std::string& id, int dataset) {
    tdac::ServeRequest request;
    request.id = id;
    request.claims_path = claim_paths[static_cast<size_t>(dataset)];
    request.algorithm = "Accu";
    return request;
  };

  // --- cold vs cached -----------------------------------------------------
  // First touch pays dataset load + full run; the repeat must come out of
  // the result cache (the >= 10x acceptance ratio in docs/serving.md).
  tdac::WallTimer cold_timer;
  tdac::ServeResponse cold = engine.ExecuteBlocking(base_request("cold", 0));
  const double cold_ms = cold_timer.ElapsedMillis();
  tdac::WallTimer cached_timer;
  tdac::ServeResponse cached =
      engine.ExecuteBlocking(base_request("cached", 0));
  const double cached_ms = cached_timer.ElapsedMillis();
  if (cold.outcome != tdac::ServeResponse::Outcome::kOk ||
      cached.outcome != tdac::ServeResponse::Outcome::kOk || !cached.cached) {
    std::cerr << "cold/cached probe failed (cold="
              << tdac::FormatResponseLine(cold)
              << " cached=" << tdac::FormatResponseLine(cached) << ")\n";
    return 1;
  }
  std::cout << "cold=" << cold_ms << "ms cached=" << cached_ms
            << "ms speedup=" << cold_ms / cached_ms << "x\n";

  tdac::Rng rng(args.seed);
  std::vector<PhaseStats> phases;

  // --- warmup: touch every dataset cold, then repeats ---------------------
  phases.push_back(RunPhase(
      engine, "warmup", kDatasets * 4, delay_ms * 2, [&](int i) {
        return base_request(tdac::Numbered("w", i), i % kDatasets);
      }));

  // --- steady: ~50% capacity, mixed actions -------------------------------
  // Mix: 60% repeats (cache hits), 30% restrictions (view cache + distinct
  // result identity), 10% uncacheable heavy requests.
  auto mixed_request = [&](const std::string& id) {
    tdac::ServeRequest request =
        base_request(id, static_cast<int>(rng.NextBounded(kDatasets)));
    const double action = rng.NextDouble();
    if (action < 0.6) {
      // plain repeat — served from the result cache
    } else if (action < 0.9) {
      request.attributes = {0, static_cast<tdac::AttributeId>(
                                   1 + rng.NextBounded(3))};
    } else {
      request.no_cache = true;
    }
    return request;
  };
  phases.push_back(RunPhase(
      engine, "steady", requests_per_phase, 1000.0 / (capacity_rps * 0.5),
      [&](int i) { return mixed_request(tdac::Numbered("s", i)); }));

  // --- overload: 4x the admission limit's worth of uncacheable work -------
  // Every request is no-cache (forced cold execution), arriving 4x faster
  // than the engine can serve: admission control must shed the excess with
  // labeled rejections while accepted requests keep completing.
  phases.push_back(RunPhase(
      engine, "overload", 4 * admission_limit * 4,
      delay_ms / options.workers / 4.0, [&](int i) {
        tdac::ServeRequest request = base_request(
            tdac::Numbered("o", i),
            static_cast<int>(rng.NextBounded(kDatasets)));
        request.no_cache = true;
        return request;
      }));

  // --- recovery: steady rate again; rejections must stop ------------------
  phases.push_back(RunPhase(
      engine, "recovery", requests_per_phase / 2,
      1000.0 / (capacity_rps * 0.5),
      [&](int i) { return mixed_request(tdac::Numbered("r", i)); }));

  const PhaseStats& overload = phases[2];
  const PhaseStats& recovery = phases[3];
  bool failed = false;
  if (overload.rejected == 0) {
    std::cerr << "FAIL: overload phase produced no rejections\n";
    failed = true;
  }
  if (overload.ok + overload.rejected + overload.errors != overload.sent) {
    std::cerr << "FAIL: overload responses do not add up\n";
    failed = true;
  }
  if (recovery.rejected > recovery.sent / 10) {
    std::cerr << "FAIL: engine did not recover after overload ("
              << recovery.rejected << "/" << recovery.sent << " rejected)\n";
    failed = true;
  }

  for (const PhaseStats& s : phases) PrintPhase(s);
  const tdac::ServeEngine::Stats stats = engine.stats();
  std::cout << "engine: submitted=" << stats.submitted
            << " rejected=" << stats.rejected
            << " executions=" << stats.executions
            << " cache-hits=" << stats.cache_hits
            << " coalesced=" << stats.coalesced << "\n";

  std::vector<JsonRecord> records;
  {
    JsonRecord record;
    record.Set("phase", "cold_vs_cached")
        .Set("cold_ms", cold_ms)
        .Set("cached_ms", cached_ms)
        .Set("speedup", cold_ms / std::max(cached_ms, 1e-9))
        .Set("workers", options.workers)
        .Set("queue_capacity", options.queue_capacity)
        .Set("delay_ms", delay_ms)
        .Set("seed", static_cast<unsigned long long>(args.seed));
    records.push_back(record);
  }
  for (const PhaseStats& s : phases) records.push_back(PhaseRecord(s));
  tdac_bench::ExportJson(args, "BENCH_serve.json", records);

  return failed ? 1 : 0;
}
