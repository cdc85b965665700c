// Small string helpers shared across modules.
#ifndef ADAHEALTH_COMMON_STRING_UTIL_H_
#define ADAHEALTH_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace adahealth {
namespace common {

/// Splits `text` at every occurrence of `delimiter`. Empty fields are
/// preserved ("a,,b" -> {"a", "", "b"}); splitting "" yields {""}.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Joins `parts` with `delimiter`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delimiter);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// Lowercases ASCII letters.
std::string ToLower(std::string_view text);

/// Parses a base-10 signed integer; the whole string must be consumed.
[[nodiscard]] StatusOr<int64_t> ParseInt64(std::string_view text);

/// `value` narrowed to int32_t; INVALID_ARGUMENT naming `field` when it
/// does not fit. Wire and CSV readers narrow 64-bit integers with this,
/// never with a bare cast, so an id like 2^32 + 1 cannot wrap onto 1.
[[nodiscard]] StatusOr<int32_t> CheckedInt32(int64_t value,
                                             std::string_view field);

/// Parses a floating point value; the whole string must be consumed.
[[nodiscard]] StatusOr<double> ParseDouble(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace common
}  // namespace adahealth

#endif  // ADAHEALTH_COMMON_STRING_UTIL_H_
