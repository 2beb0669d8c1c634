#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>

namespace gsgrow {

std::vector<std::string> Split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  size_t pos = 0;
  for (std::string_view token = NextToken(s, delims, &pos); !token.empty();
       token = NextToken(s, delims, &pos)) {
    out.emplace_back(token);
  }
  return out;
}

std::string_view NextToken(std::string_view s, std::string_view delims,
                           size_t* pos) {
  const size_t begin = s.find_first_not_of(delims, std::min(*pos, s.size()));
  if (begin == std::string_view::npos) {
    *pos = s.size();
    return {};
  }
  size_t end = s.find_first_of(delims, begin);
  if (end == std::string_view::npos) end = s.size();
  *pos = end;
  return s.substr(begin, end - begin);
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = Trim(s);
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  s = Trim(s);
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  // std::from_chars for double is not universally available; use strtod.
  std::string buf(s);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

std::string WithThousandsSeparators(uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i > 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace gsgrow
