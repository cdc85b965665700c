#include "common/csv.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

namespace adahealth {
namespace common {

namespace {

/// Where one field's bytes live until its row is visited: a slice of
/// the input text, or of the row's unescaped copies.
struct FieldSpan {
  size_t begin = 0;
  size_t size = 0;
  bool in_unescaped = false;
};

}  // namespace

Status VisitCsvRows(std::string_view text, const CsvRowVisitor& visit,
                    char delimiter) {
  const size_t n = text.size();
  // Bytes that end an unquoted run: the delimiter, a row terminator, or
  // a quote (an error unless it opens the field).
  bool stops[256] = {};
  stops[static_cast<unsigned char>(delimiter)] = true;
  stops[static_cast<unsigned char>('\n')] = true;
  stops[static_cast<unsigned char>('\r')] = true;
  stops[static_cast<unsigned char>('"')] = true;
  auto run_end = [&](size_t from) {
    while (from < n && !stops[static_cast<unsigned char>(text[from])]) ++from;
    return from;
  };

  std::vector<FieldSpan> spans;
  std::vector<std::string_view> fields;
  std::string unescaped;
  auto emit_row = [&] {
    fields.clear();
    for (const FieldSpan& span : spans) {
      fields.push_back(span.in_unescaped
                           ? std::string_view(unescaped).substr(span.begin,
                                                              span.size)
                           : text.substr(span.begin, span.size));
    }
    visit(fields);
    spans.clear();
    unescaped.clear();
  };

  size_t i = 0;
  while (i < n) {
    FieldSpan span;
    if (text[i] == '"') {
      // Quoted: "" is an escaped quote, and any text after the closing
      // quote (up to the next delimiter or row end) joins the field.
      const size_t open = ++i;
      bool escaped = false;
      size_t close = 0;
      for (;;) {
        close = text.find('"', i);
        if (close == std::string_view::npos) {
          return InvalidArgumentError("unterminated quoted CSV field");
        }
        if (close + 1 < n && text[close + 1] == '"') {
          escaped = true;
          i = close + 2;
          continue;
        }
        break;
      }
      i = close + 1;
      const size_t tail_end = run_end(i);
      if (tail_end < n && text[tail_end] == '"') {
        return InvalidArgumentError(
            "unexpected quote inside unquoted CSV field");
      }
      if (!escaped && tail_end == i) {
        span = FieldSpan{open, close - open, false};
      } else {
        span = FieldSpan{unescaped.size(), 0, true};
        for (size_t k = open; k < close; ++k) {
          unescaped.push_back(text[k]);
          if (text[k] == '"') ++k;  // Skip the escape's second quote.
        }
        unescaped.append(text.substr(i, tail_end - i));
        span.size = unescaped.size() - span.begin;
      }
      i = tail_end;
    } else {
      const size_t end = run_end(i);
      if (end < n && text[end] == '"') {
        return InvalidArgumentError(
            "unexpected quote inside unquoted CSV field");
      }
      span = FieldSpan{i, end - i, false};
      i = end;
    }
    spans.push_back(span);
    if (i == n) break;  // A last row without a terminator.
    const char c = text[i++];
    if (c == delimiter) {
      // "a," ends its row with an empty field.
      if (i == n) spans.push_back(FieldSpan{});
      continue;
    }
    // Accept both \r\n and bare \r as row terminators.
    if (c == '\r' && i < n && text[i] == '\n') ++i;
    emit_row();
  }
  if (!spans.empty()) emit_row();
  return OkStatus();
}

StatusOr<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view text, char delimiter) {
  std::vector<std::vector<std::string>> rows;
  ADA_RETURN_IF_ERROR(VisitCsvRows(
      text,
      [&rows](const std::vector<std::string_view>& fields) {
        rows.emplace_back(fields.begin(), fields.end());
      },
      delimiter));
  return rows;
}

namespace {

bool NeedsQuoting(const std::string& field, char delimiter) {
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

std::string WriteCsv(const std::vector<std::vector<std::string>>& rows,
                     char delimiter) {
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(delimiter);
      const std::string& field = row[i];
      if (NeedsQuoting(field, delimiter)) {
        out.push_back('"');
        for (char c : field) {
          if (c == '"') out.push_back('"');
          out.push_back(c);
        }
        out.push_back('"');
      } else {
        out.append(field);
      }
    }
    out.push_back('\n');
  }
  return out;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return NotFoundError("cannot open file: " + path);
  std::string contents;
  char buffer[1 << 16];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, read);
  }
  bool had_error = std::ferror(file) != 0;
  std::fclose(file);
  if (had_error) return DataLossError("read error on file: " + path);
  return contents;
}

Status WriteStringToFile(const std::string& path, std::string_view contents) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return InvalidArgumentError("cannot open file for writing: " + path);
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), file);
  bool ok = written == contents.size();
  ok = std::fclose(file) == 0 && ok;
  if (!ok) return DataLossError("write error on file: " + path);
  return OkStatus();
}

Status CheckDirectoryWritable(const std::string& path) {
  struct stat info;
  if (::stat(path.c_str(), &info) != 0) {
    return UnavailableError("directory does not exist: " + path);
  }
  if (!S_ISDIR(info.st_mode)) {
    return UnavailableError("not a directory: " + path);
  }
  if (::access(path.c_str(), W_OK | X_OK) != 0) {
    return UnavailableError("directory is not writable: " + path);
  }
  return OkStatus();
}

Status CheckDirectoryReadable(const std::string& path) {
  struct stat info;
  if (::stat(path.c_str(), &info) != 0) {
    return UnavailableError("directory does not exist: " + path);
  }
  if (!S_ISDIR(info.st_mode)) {
    return UnavailableError("not a directory: " + path);
  }
  if (::access(path.c_str(), R_OK | X_OK) != 0) {
    return UnavailableError("directory is not readable: " + path);
  }
  return OkStatus();
}

}  // namespace common
}  // namespace adahealth
