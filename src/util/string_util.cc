#include "util/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace cluseq {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delim) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() &&
         (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n')) {
    ++b;
  }
  size_t e = s.size();
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n')) {
    --e;
  }
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string Join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(items[i]);
  }
  return out;
}

std::string StringPrintf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool ParseFlag(std::string_view arg, std::string_view name,
               std::string* value) {
  std::string prefix = "--";
  prefix.append(name);
  prefix.push_back('=');
  if (!StartsWith(arg, prefix)) return false;
  *value = std::string(arg.substr(prefix.size()));
  return true;
}

bool ParseUint64(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseInt32(std::string_view text, int32_t* out) {
  const bool negative = !text.empty() && text.front() == '-';
  uint64_t magnitude = 0;
  if (!ParseUint64(negative ? text.substr(1) : text, &magnitude)) {
    return false;
  }
  // |INT32_MIN| = INT32_MAX + 1.
  const uint64_t limit =
      static_cast<uint64_t>(std::numeric_limits<int32_t>::max()) + negative;
  if (magnitude > limit) return false;
  *out = negative ? static_cast<int32_t>(-static_cast<int64_t>(magnitude))
                  : static_cast<int32_t>(magnitude);
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  const std::string buffer(text);
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

std::string HumanBytes(size_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  double v = static_cast<double>(bytes);
  size_t u = 0;
  while (v >= 1024.0 && u + 1 < 4) {
    v /= 1024.0;
    ++u;
  }
  return StringPrintf("%.1f %s", v, units[u]);
}

}  // namespace cluseq
