#include "util.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TailPercentile(size_t count, const std::vector<double>& percentiles,
                      size_t min_beyond) {
  double best = 0.0;
  for (const double p : percentiles) {
    const double beyond = static_cast<double>(count) * (100.0 - p) / 100.0;
    if (beyond >= static_cast<double>(min_beyond)) best = p;
  }
  return best;
}

void Fatal(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(1);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string JsonString(std::string_view value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonStringArray(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(values[i]);
  }
  return out + "]";
}

void JsonObject::Key(std::string_view key) {
  if (!body_.empty()) body_ += ",";
  body_ += JsonString(key) + ":";
}

JsonObject& JsonObject::Add(std::string_view key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Add(std::string_view key, std::string_view value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::AddRaw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

}  // namespace perfbench
