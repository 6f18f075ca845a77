#ifndef TDAC_COMMON_STRING_UTIL_H_
#define TDAC_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace tdac {

/// Splits `s` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// Lower-cases ASCII letters.
std::string AsciiToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double v, int precision);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// `prefix` followed by `n` in decimal ("S1", "Q124"). Appends to the
/// prefix instead of prepending a literal to a temporary, which GCC 12
/// misreports as an overlapping copy (-Wrestrict) in optimized builds.
std::string Numbered(std::string_view prefix, long long n);

}  // namespace tdac

#endif  // TDAC_COMMON_STRING_UTIL_H_
