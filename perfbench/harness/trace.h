// In-memory span recorder for the traced run. Spans are opened around the
// harness's calls into each layer's public functions (nothing inside the
// library is instrumented), kept in memory, and written once at exit as
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing).
#ifndef TDAC_PERFBENCH_TRACE_H_
#define TDAC_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  // index of the parent span, -1 for a root span
    uint64_t run_id = 0;
  };

  /// Times one call. With a null tracer it only measures; with a tracer
  /// it also records a span whose parent is the innermost open span.
  /// Spans nest strictly (single-threaded, RAII order).
  class Span {
   public:
    Span(Tracer* tracer, std::string name);
    ~Span() { End(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Closes the span early; returns its duration in milliseconds.
    double End();

   private:
    Tracer* tracer_;
    int index_ = -1;
    Clock::time_point start_;
    bool open_ = true;
    double ms_ = 0.0;
  };

  explicit Tracer(uint64_t run_id) : run_id_(run_id) {}

  /// Per span name: summed duration and summed self time (duration minus
  /// the part of it covered by child spans), in milliseconds.
  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;
    int count = 0;
  };
  std::map<std::string, Totals> TotalsByName() const;

  /// Summed self time of every layer span (named `<layer>.<call>`) over
  /// the summed duration of the root spans: the share of the traced wall
  /// time that some layer accounts for. Grouping spans (no dot) and the
  /// gaps between calls count against it.
  double Coverage() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// with parent, run id and self time in args) plus `metadata` as the
  /// top-level "otherData" object. Fatal on write failure.
  void WriteChromeTrace(const std::string& path,
                        const std::string& metadata_json) const;

 private:
  std::vector<double> SelfMs() const;

  uint64_t run_id_;
  std::vector<Record> records_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench

#endif  // TDAC_PERFBENCH_TRACE_H_
