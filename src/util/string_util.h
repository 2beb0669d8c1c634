// Small string helpers shared by I/O, examples, and benchmarks.

#ifndef GSGROW_UTIL_STRING_UTIL_H_
#define GSGROW_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gsgrow {

/// Splits `s` on any run of characters from `delims`; empty tokens are
/// dropped. Split("a  b", " ") == {"a", "b"}.
std::vector<std::string> Split(std::string_view s, std::string_view delims);

/// Split's tokens one at a time, without copying: the next maximal run of
/// bytes not in `delims` at or after *pos, skipping the delimiters before
/// it, with *pos moved past it. Empty when no token is left.
std::string_view NextToken(std::string_view s, std::string_view delims,
                           size_t* pos);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a signed integer; returns false on any non-numeric content.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses an unsigned integer (full uint64 range, so saturated counters
/// like UINT64_MAX round-trip); returns false on any non-numeric content
/// or a leading '-'.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Parses a double; returns false on any non-numeric content.
bool ParseDouble(std::string_view s, double* out);

/// Human-readable count, e.g. 1234567 -> "1,234,567".
std::string WithThousandsSeparators(uint64_t v);

}  // namespace gsgrow

#endif  // GSGROW_UTIL_STRING_UTIL_H_
