// Small helpers shared by the benchmark harness: clocks, order
// statistics, a minimal JSON writer and a fatal-error exit.
#ifndef TDAC_PERFBENCH_UTIL_H_
#define TDAC_PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// The highest of `percentiles` (ascending, e.g. {95, 99}) that leaves at
/// least `min_beyond` of `count` samples above it; 0 when none does.
double TailPercentile(size_t count, const std::vector<double>& percentiles,
                      size_t min_beyond = 10);

/// Prints `message` to stderr and exits 1 without printing a result.
[[noreturn]] void Fatal(const std::string& message);

/// Builds one JSON object, keys in insertion order. Numbers are written
/// with all the digits needed to round-trip.
class JsonObject {
 public:
  JsonObject& Add(std::string_view key, double value);
  JsonObject& Add(std::string_view key, int64_t value);
  JsonObject& Add(std::string_view key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonObject& Add(std::string_view key, size_t value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonObject& Add(std::string_view key, bool value);
  JsonObject& Add(std::string_view key, std::string_view value);
  JsonObject& Add(std::string_view key, const char* value) {
    return Add(key, std::string_view(value));
  }
  /// `json` is inserted verbatim (a nested object or array).
  JsonObject& AddRaw(std::string_view key, std::string_view json);

  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_;
};

std::string JsonNumber(double value);
std::string JsonString(std::string_view value);
/// `["a","b"]` from strings.
std::string JsonStringArray(const std::vector<std::string>& values);

}  // namespace perfbench

#endif  // TDAC_PERFBENCH_UTIL_H_
