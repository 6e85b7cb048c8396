#include "common/stringutil.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace kdsel {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

StatusOr<uint64_t> ParseUint64(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty integer");
  uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("non-digit in integer: '" +
                                     std::string(s) + "'");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::OutOfRange("integer overflow: '" + std::string(s) + "'");
    }
    value = value * 10 + digit;
  }
  return value;
}

StatusOr<size_t> ParseSize(std::string_view s) {
  KDSEL_ASSIGN_OR_RETURN(const uint64_t value, ParseUint64(s));
  if constexpr (sizeof(size_t) < sizeof(uint64_t)) {
    if (value > static_cast<uint64_t>(SIZE_MAX)) {
      return Status::OutOfRange("integer too large for size_t: '" +
                                std::string(s) + "'");
    }
  }
  return static_cast<size_t>(value);
}

StatusOr<double> ParseDouble(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty number");
  const std::string text(s);  // strtod needs NUL termination.
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument("trailing junk in number: '" + text + "'");
  }
  if (errno == ERANGE || !std::isfinite(value)) {
    return Status::OutOfRange("number out of range: '" + text + "'");
  }
  return value;
}

StatusOr<float> ParseFloat(std::string_view s) {
  KDSEL_ASSIGN_OR_RETURN(const double value, ParseDouble(s));
  const float narrowed = static_cast<float>(value);
  if (!std::isfinite(narrowed)) {
    return Status::OutOfRange("number does not fit in float: '" +
                              std::string(s) + "'");
  }
  return narrowed;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace kdsel
