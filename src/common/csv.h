// RFC-4180-style CSV reading and writing.
//
// Supports quoted fields with embedded delimiters, escaped quotes ("")
// and embedded newlines. Used for dataset import/export.
#ifndef ADAHEALTH_COMMON_CSV_H_
#define ADAHEALTH_COMMON_CSV_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace adahealth {
namespace common {

/// Receives one row's fields. A field views `text` directly unless it
/// was quoted with a doubled quote ("") or has text after its closing
/// quote; then it views an unescaped copy. Either way a view is valid
/// only until the visitor returns.
using CsvRowVisitor =
    std::function<void(const std::vector<std::string_view>& fields)>;

/// The one CSV tokenizer: visits every row of `text` in order, without
/// copying unquoted fields. A blank line is a row with one empty field.
/// Fails with INVALID_ARGUMENT on unterminated quotes or stray quote
/// characters inside unquoted fields; rows before the error have been
/// visited by then.
[[nodiscard]] Status VisitCsvRows(std::string_view text,
                                  const CsvRowVisitor& visit,
                                  char delimiter = ',');

/// Parses a whole CSV document into rows of fields (VisitCsvRows,
/// collected). Same errors.
// ada-lint: allow(unreached-symbol) csv_test and the oracle of
// parse_oracle_test's CSV cases.
[[nodiscard]] StatusOr<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view text, char delimiter = ',');

/// Serializes rows to CSV, quoting fields that contain the delimiter,
/// quotes, or newlines.
std::string WriteCsv(const std::vector<std::vector<std::string>>& rows,
                     char delimiter = ',');

/// Reads an entire file into a string.
[[nodiscard]] StatusOr<std::string> ReadFileToString(const std::string& path);

/// Writes `contents` to `path`, replacing any existing file.
[[nodiscard]] Status WriteStringToFile(const std::string& path, std::string_view contents);

/// Verifies that `path` is an existing, writable directory; UNAVAILABLE
/// (naming the path) otherwise. Used to fail persistence operations up
/// front instead of midway through a multi-file write.
[[nodiscard]] Status CheckDirectoryWritable(const std::string& path);

/// As above but only requires read+list access (for load paths).
[[nodiscard]] Status CheckDirectoryReadable(const std::string& path);

}  // namespace common
}  // namespace adahealth

#endif  // ADAHEALTH_COMMON_CSV_H_
