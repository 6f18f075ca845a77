#ifndef TDAC_DATA_VALUE_H_
#define TDAC_DATA_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"
#include "common/status.h"

namespace tdac {

/// \brief A typed claim value: string, 64-bit integer, or double.
///
/// Truth-discovery vote counting uses exact equality (`operator==`);
/// graded closeness between distinct values (used by TruthFinder's
/// implication and AccuSim's similarity support) lives in
/// `td/value_similarity.h`.
class Value {
 public:
  enum class Kind { kString = 0, kInt = 1, kDouble = 2 };

  /// Default-constructs the empty string value.
  Value() : rep_(std::string()) {}
  explicit Value(std::string s) : rep_(std::move(s)) {}
  explicit Value(const char* s) : rep_(std::string(s)) {}
  explicit Value(int64_t i) : rep_(i) {}
  explicit Value(int i) : rep_(static_cast<int64_t>(i)) {}
  explicit Value(double d) : rep_(d) {}

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }

  /// Accessors abort on kind mismatch (programming error).
  const std::string& AsString() const;
  int64_t AsInt() const;
  double AsDouble() const;

  /// Numeric view: the int or double payload widened to double.
  /// Aborts for string values.
  double AsNumeric() const;

  /// True when the value carries a number (int or double).
  bool IsNumeric() const { return !is_string(); }

  /// Renders the payload ("x", "42", "3.5"). Doubles use shortest
  /// round-trippable formatting.
  std::string ToString() const;

  /// Parses a typed value from text produced by ToString plus a kind tag.
  /// Lenient: malformed numerics log a warning and default to 0. Use
  /// FromTextChecked at ingestion boundaries where garbage must be refused.
  static Value FromText(Kind kind, std::string_view text);

  /// Strict parse: rejects text with trailing garbage, empty numerics, and
  /// non-finite doubles (nan/inf) instead of silently defaulting. This is
  /// what dataset ingestion uses so corrupted input surfaces as a Status
  /// with the offending text rather than a fabricated 0.
  [[nodiscard]]
  static Result<Value> FromTextChecked(Kind kind, std::string_view text);

  /// Exact equality: same kind and same payload. An int 2 and a double 2.0
  /// are *different* values (sources claiming "2" vs "2.0" disagree).
  bool operator==(const Value& other) const { return rep_ == other.rep_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order (kind first, then payload) used for deterministic
  /// tie-breaking in vote counting.
  bool operator<(const Value& other) const;

  /// Stable 64-bit hash of kind and payload.
  uint64_t Hash() const;

 private:
  std::variant<std::string, int64_t, double> rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// \brief A non-owning typed value: the kind plus its payload, with a
/// string payload viewed rather than owned.
///
/// It is the value dictionary's storage form, and what the claim loader
/// interns straight from its input buffer, so ingestion builds no `Value`
/// (and no `std::string`) per claim. Like `std::string_view`, it converts
/// implicitly from a `Value` and must not outlive it.
struct ValueRef {
  Value::Kind kind = Value::Kind::kString;
  int64_t num = 0;       // the int payload, or the double's bits
  std::string_view str;  // the string payload

  ValueRef() = default;
  ValueRef(const Value& v);  // NOLINT(google-explicit-constructor)

  static ValueRef String(std::string_view s);
  static ValueRef Int(int64_t i);
  static ValueRef Double(double d);

  /// The double payload; kDouble only.
  double AsDouble() const;

  /// An owning copy.
  Value ToValue() const;

  /// The strict parse behind Value::FromTextChecked: rejects trailing
  /// garbage, empty numerics and non-finite doubles. A string payload
  /// views `text`.
  [[nodiscard]]
  static Result<ValueRef> Parse(Value::Kind kind, std::string_view text);
};

/// Hash functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};

}  // namespace tdac

#endif  // TDAC_DATA_VALUE_H_
