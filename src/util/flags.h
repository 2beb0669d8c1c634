// Minimal command-line flag parsing for the command-line front ends.
//
// Supports --name=value and --name value forms plus bare boolean switches
// (--verbose). Unknown positional arguments are collected in order.

#ifndef GSGROW_UTIL_FLAGS_H_
#define GSGROW_UTIL_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace gsgrow {

/// Parsed command line.
class Flags {
 public:
  /// Parses argv (argv[0] is skipped).
  static Flags Parse(int argc, char** argv);

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;

  /// Checked read of --`name` into *value. An absent flag leaves *value (the
  /// caller's default) as it is; a value that does not parse as T, or lies
  /// outside [min, max], is an InvalidArgument error naming the flag, and
  /// *value is left unchanged. T is int64_t, double (NaN never passes) or
  /// bool (true|false, 1|0, yes|no, on|off); the check is ParseInRange.
  template <typename T>
  Status Get(const std::string& name, T* value,
             T min = std::numeric_limits<T>::lowest(),
             T max = std::numeric_limits<T>::max()) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The parse-and-bounds step behind Flags::Get and EnvDouble, for callers
/// that word their own errors (the serve protocol, io/request_io.cc): true
/// when `raw` parses as a T within [min, max], stored in *value; otherwise
/// false with *value unchanged. T is int64_t, uint64_t (the full range, no
/// sign), double (NaN never passes) or bool. Surrounding ASCII whitespace
/// is ignored for the numeric types.
template <typename T>
bool ParseInRange(std::string_view raw, T* value, T min, T max);

/// Checked read of environment variable `name` into *value, with the rules
/// of Flags::Get: an unset variable leaves *value (the caller's default) as
/// it is; a value that does not parse as a double, or lies outside
/// [min, max], is an InvalidArgument error naming the variable. Used by the
/// benchmarks for GSGROW_BENCH_SCALE / GSGROW_BENCH_BUDGET.
Status EnvDouble(const char* name, double* value,
                 double min = std::numeric_limits<double>::lowest(),
                 double max = std::numeric_limits<double>::max());

}  // namespace gsgrow

#endif  // GSGROW_UTIL_FLAGS_H_
