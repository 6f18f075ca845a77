#include "data/value.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "common/logging.h"

namespace tdac {

const std::string& Value::AsString() const {
  TDAC_CHECK(is_string()) << "Value is not a string";
  return std::get<std::string>(rep_);
}

int64_t Value::AsInt() const {
  TDAC_CHECK(is_int()) << "Value is not an int";
  return std::get<int64_t>(rep_);
}

double Value::AsDouble() const {
  TDAC_CHECK(is_double()) << "Value is not a double";
  return std::get<double>(rep_);
}

double Value::AsNumeric() const {
  if (is_int()) return static_cast<double>(std::get<int64_t>(rep_));
  TDAC_CHECK(is_double()) << "Value is not numeric";
  return std::get<double>(rep_);
}

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kString:
      return std::get<std::string>(rep_);
    case Kind::kInt:
      return std::to_string(std::get<int64_t>(rep_));
    case Kind::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", std::get<double>(rep_));
      return buf;
    }
  }
  return {};
}

Value Value::FromText(Kind kind, std::string_view text) {
  switch (kind) {
    case Kind::kString:
      return Value(std::string(text));
    case Kind::kInt: {
      int64_t v = 0;
      auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        TDAC_LOG_WARNING << "Value::FromText: bad int '" << std::string(text)
                         << "', defaulting to 0";
        v = 0;
      }
      return Value(v);
    }
    case Kind::kDouble: {
      // std::from_chars for double is not available everywhere; use strtod.
      std::string tmp(text);
      char* end = nullptr;
      double v = std::strtod(tmp.c_str(), &end);
      if (end != tmp.c_str() + tmp.size()) {
        TDAC_LOG_WARNING << "Value::FromText: bad double '" << tmp
                         << "', defaulting to 0";
        v = 0.0;
      }
      return Value(v);
    }
  }
  return Value();
}

Result<Value> Value::FromTextChecked(Kind kind, std::string_view text) {
  TDAC_ASSIGN_OR_RETURN(ValueRef ref, ValueRef::Parse(kind, text));
  return ref.ToValue();
}

bool Value::operator<(const Value& other) const {
  if (rep_.index() != other.rep_.index()) {
    return rep_.index() < other.rep_.index();
  }
  if (is_double()) {
    // NaN payloads break std::variant's raw `<` (strict weak ordering
    // requires trichotomy); sort every NaN after every number so
    // deterministic tie-breaking survives corrupted data.
    const double a = std::get<double>(rep_);
    const double b = std::get<double>(other.rep_);
    const bool a_nan = std::isnan(a);
    const bool b_nan = std::isnan(b);
    if (a_nan || b_nan) return !a_nan && b_nan;
    return a < b;
  }
  return rep_ < other.rep_;
}

uint64_t Value::Hash() const {
  // FNV-1a over a kind tag byte plus the payload bytes.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  unsigned char tag = static_cast<unsigned char>(kind());
  mix(&tag, 1);
  switch (kind()) {
    case Kind::kString: {
      const std::string& s = std::get<std::string>(rep_);
      mix(s.data(), s.size());
      break;
    }
    case Kind::kInt: {
      int64_t v = std::get<int64_t>(rep_);
      mix(&v, sizeof(v));
      break;
    }
    case Kind::kDouble: {
      double d = std::get<double>(rep_);
      if (d == 0.0) d = 0.0;  // collapse -0.0 and +0.0
      mix(&d, sizeof(d));
      break;
    }
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

ValueRef::ValueRef(const Value& v) : kind(v.kind()) {
  switch (kind) {
    case Value::Kind::kString:
      str = v.AsString();
      break;
    case Value::Kind::kInt:
      num = v.AsInt();
      break;
    case Value::Kind::kDouble:
      num = static_cast<int64_t>(std::bit_cast<uint64_t>(v.AsDouble()));
      break;
  }
}

ValueRef ValueRef::String(std::string_view s) {
  ValueRef ref;
  ref.kind = Value::Kind::kString;
  ref.str = s;
  return ref;
}

ValueRef ValueRef::Int(int64_t i) {
  ValueRef ref;
  ref.kind = Value::Kind::kInt;
  ref.num = i;
  return ref;
}

ValueRef ValueRef::Double(double d) {
  ValueRef ref;
  ref.kind = Value::Kind::kDouble;
  ref.num = static_cast<int64_t>(std::bit_cast<uint64_t>(d));
  return ref;
}

double ValueRef::AsDouble() const {
  TDAC_CHECK(kind == Value::Kind::kDouble) << "ValueRef is not a double";
  return std::bit_cast<double>(static_cast<uint64_t>(num));
}

Value ValueRef::ToValue() const {
  switch (kind) {
    case Value::Kind::kString:
      return Value(std::string(str));
    case Value::Kind::kInt:
      return Value(num);
    case Value::Kind::kDouble:
      return Value(AsDouble());
  }
  TDAC_CHECK(false) << "ValueRef::ToValue: unknown value kind";
  return Value();
}

Result<ValueRef> ValueRef::Parse(Value::Kind kind, std::string_view text) {
  switch (kind) {
    case Value::Kind::kString:
      return String(text);
    case Value::Kind::kInt: {
      int64_t v = 0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (text.empty() || ec != std::errc() ||
          ptr != text.data() + text.size()) {
        return Status::InvalidArgument("not an integer: '" +
                                       std::string(text) + "'");
      }
      return Int(v);
    }
    case Value::Kind::kDouble: {
      // strtod needs a terminator; short numbers are copied to the stack.
      char stack[64];
      std::string heap;
      const char* begin = stack;
      if (text.size() < sizeof(stack)) {
        std::memcpy(stack, text.data(), text.size());
        stack[text.size()] = '\0';
      } else {
        heap.assign(text);
        begin = heap.c_str();
      }
      char* end = nullptr;
      const double v = std::strtod(begin, &end);
      // strtod on an empty string "succeeds" with end == begin == the
      // terminator, so the emptiness check is load-bearing.
      if (text.empty() || end != begin + text.size()) {
        return Status::InvalidArgument("not a number: '" + std::string(text) +
                                       "'");
      }
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite number: '" +
                                       std::string(text) + "'");
      }
      return Double(v);
    }
  }
  return Status::InvalidArgument("unknown value kind");
}

}  // namespace tdac
