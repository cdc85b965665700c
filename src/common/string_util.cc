#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace adahealth {
namespace common {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

StatusOr<int64_t> ParseInt64(std::string_view text) {
  if (text.empty()) return InvalidArgumentError("empty integer literal");
  // Fast path for an optional sign and 1-18 digits, which cannot
  // overflow; everything else (whitespace, long literals, errors) takes
  // strtoll below, so the accepted language is strtoll's.
  const bool negative = text[0] == '-';
  const size_t first = (negative || text[0] == '+') ? 1 : 0;
  if (text.size() > first && text.size() - first <= 18) {
    int64_t value = 0;
    size_t i = first;
    for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
      value = value * 10 + (text[i] - '0');
    }
    if (i == text.size()) return negative ? -value : value;
  }
  std::string buffer(text);
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE) {
    return OutOfRangeError("integer out of range: " + buffer);
  }
  if (end == buffer.c_str() || *end != '\0') {
    return InvalidArgumentError("malformed integer: " + buffer);
  }
  return static_cast<int64_t>(value);
}

StatusOr<int32_t> CheckedInt32(int64_t value, std::string_view field) {
  if (value < std::numeric_limits<int32_t>::min() ||
      value > std::numeric_limits<int32_t>::max()) {
    return InvalidArgumentError(StrFormat(
        "field '%.*s' is out of range: %lld does not fit in 32 bits",
        static_cast<int>(field.size()), field.data(),
        static_cast<long long>(value)));
  }
  return static_cast<int32_t>(value);
}

StatusOr<double> ParseDouble(std::string_view text) {
  if (text.empty()) return InvalidArgumentError("empty double literal");
  std::string buffer(text);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (errno == ERANGE) {
    return OutOfRangeError("double out of range: " + buffer);
  }
  if (end == buffer.c_str() || *end != '\0') {
    return InvalidArgumentError("malformed double: " + buffer);
  }
  return value;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), format, args_copy);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(args_copy);
  return out;
}

}  // namespace common
}  // namespace adahealth
