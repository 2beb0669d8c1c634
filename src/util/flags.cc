#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "util/string_util.h"

namespace gsgrow {

namespace {

bool ParseValue(std::string_view raw, int64_t* out) {
  return ParseInt64(raw, out);
}

bool ParseValue(std::string_view raw, uint64_t* out) {
  return ParseUint64(raw, out);
}

bool ParseValue(std::string_view raw, double* out) {
  return ParseDouble(raw, out);
}

bool ParseValue(std::string_view raw, bool* out) {
  if (raw == "true" || raw == "1" || raw == "yes" || raw == "on") {
    *out = true;
    return true;
  }
  if (raw == "false" || raw == "0" || raw == "no" || raw == "off") {
    *out = false;
    return true;
  }
  return false;
}

// What a valid value of --name looks like, for the error message: `kind`
// plus the bounds that differ from the type's own limits.
template <typename T>
std::string Expected(const char* kind, T min, T max,
                     std::string (*format)(T)) {
  const bool low = min != std::numeric_limits<T>::lowest();
  const bool high = max != std::numeric_limits<T>::max();
  std::string s = kind;
  if (low && high) return s + " in [" + format(min) + ", " + format(max) + "]";
  if (low) return s + " >= " + format(min);
  if (high) return s + " <= " + format(max);
  return s;
}

std::string Expected(int64_t min, int64_t max) {
  return Expected<int64_t>("an integer", min, max,
                           [](int64_t v) { return std::to_string(v); });
}

std::string Expected(double min, double max) {
  return Expected<double>("a number", min, max, [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  });
}

std::string Expected(bool, bool) { return "true|false|1|0|yes|no|on|off"; }

}  // namespace

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      flags.positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags.values_[arg] = argv[++i];
    } else {
      flags.values_[arg] = "true";
    }
  }
  return flags;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

template <typename T>
bool ParseInRange(std::string_view raw, T* value, T min, T max) {
  T parsed{};
  // Written so that a NaN, which compares false to everything, fails.
  if (!ParseValue(raw, &parsed) || !(parsed >= min && parsed <= max)) {
    return false;
  }
  *value = parsed;
  return true;
}

template bool ParseInRange(std::string_view, int64_t*, int64_t, int64_t);
template bool ParseInRange(std::string_view, uint64_t*, uint64_t, uint64_t);
template bool ParseInRange(std::string_view, double*, double, double);
template bool ParseInRange(std::string_view, bool*, bool, bool);

namespace {

// Parses `raw` into *value when it is a T within [min, max]; otherwise an
// InvalidArgument naming `label`, with *value unchanged.
template <typename T>
Status ReadChecked(std::string_view label, std::string_view raw, T* value,
                   T min, T max) {
  if (ParseInRange(raw, value, min, max)) return Status::OK();
  return Status::InvalidArgument(std::string(label) + " must be " +
                                 Expected(min, max) + ", got '" +
                                 std::string(raw) + "'");
}

}  // namespace

template <typename T>
Status Flags::Get(const std::string& name, T* value, T min, T max) const {
  auto it = values_.find(name);
  if (it == values_.end()) return Status::OK();
  return ReadChecked("--" + name, it->second, value, min, max);
}

template Status Flags::Get(const std::string&, int64_t*, int64_t,
                           int64_t) const;
template Status Flags::Get(const std::string&, double*, double, double) const;
template Status Flags::Get(const std::string&, bool*, bool, bool) const;

Status EnvDouble(const char* name, double* value, double min, double max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return Status::OK();
  return ReadChecked(name, raw, value, min, max);
}

}  // namespace gsgrow
