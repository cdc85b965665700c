#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace adahealth {
namespace common {

namespace {

/// A string byte that is copied verbatim both ways: not a quote, not a
/// backslash, not a control byte.
bool IsPlainStringByte(char c) {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

/// Recursive-descent JSON parser over a string_view with a cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Json> ParseDocument() {
    SkipWhitespace();
    StatusOr<Json> value = ParseValue(0);
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status Error(const std::string& what) const {
    return InvalidArgumentError("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  StatusOr<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case 'n':
        if (ConsumeLiteral("null")) return Json(nullptr);
        return Error("invalid literal");
      case 't':
        if (ConsumeLiteral("true")) return Json(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return Json(false);
        return Error("invalid literal");
      case '"':
        return ParseString();
      case '[':
        return ParseArray(depth);
      case '{':
        return ParseObject(depth);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        return Error(std::string("unexpected character '") + c + "'");
    }
  }

  StatusOr<Json> ParseString() {
    StatusOr<std::string> raw = ParseRawString();
    if (!raw.ok()) return raw.status();
    return Json(std::move(raw).value());
  }

  StatusOr<std::string> ParseRawString() {
    ADA_CHECK_EQ(text_[pos_], '"');
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      // Plain bytes are copied a run at a time, up to the next quote,
      // backslash or control byte.
      size_t run_end = pos_;
      while (run_end < text_.size() && IsPlainStringByte(text_[run_end])) {
        ++run_end;
      }
      out.append(text_, pos_, run_end - pos_);
      pos_ = run_end;
      if (pos_ == text_.size()) break;
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("truncated escape");
        char e = text_[pos_];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return Error("truncated \\u escape");
            uint32_t code = 0;
            for (int i = 1; i <= 4; ++i) {
              char h = text_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<uint32_t>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<uint32_t>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<uint32_t>(h - 'A' + 10);
              } else {
                return Error("invalid \\u escape");
              }
            }
            pos_ += 4;
            AppendUtf8(code, out);
            break;
          }
          default:
            return Error("invalid escape character");
        }
        ++pos_;
      } else {
        return Error("unescaped control character in string");
      }
    }
    return Error("unterminated string");
  }

  static void AppendUtf8(uint32_t code, std::string& out) {
    // Surrogate pairs are stored as-is code points; adequate for the BMP
    // usage in this project.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  StatusOr<Json> ParseNumber() {
    size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") return Error("malformed number");
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      long long value = std::strtoll(token.c_str(), &end, 10);
      if (errno != ERANGE && end != nullptr && *end == '\0') {
        return Json(static_cast<int64_t>(value));
      }
      // Fall through to double for out-of-range integers.
    }
    errno = 0;
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    return Json(value);
  }

  StatusOr<Json> ParseArray(int depth) {
    ADA_CHECK_EQ(text_[pos_], '[');
    ++pos_;
    Json::Array items;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    while (true) {
      SkipWhitespace();
      StatusOr<Json> item = ParseValue(depth + 1);
      if (!item.ok()) return item;
      items.push_back(std::move(item).value());
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
      } else if (text_[pos_] == ']') {
        ++pos_;
        return Json(std::move(items));
      } else {
        return Error("expected ',' or ']' in array");
      }
    }
  }

  StatusOr<Json> ParseObject(int depth) {
    ADA_CHECK_EQ(text_[pos_], '{');
    ++pos_;
    Json::Object fields;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Json(std::move(fields));
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected string key in object");
      }
      StatusOr<std::string> key = ParseRawString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      SkipWhitespace();
      StatusOr<Json> value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      fields[std::move(key).value()] = std::move(value).value();
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
      } else if (text_[pos_] == '}') {
        ++pos_;
        return Json(std::move(fields));
      } else {
        return Error("expected ',' or '}' in object");
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void AppendEscaped(const std::string& text, std::string& out) {
  out.push_back('"');
  size_t pos = 0;
  while (pos < text.size()) {
    size_t run_end = pos;
    while (run_end < text.size() && IsPlainStringByte(text[run_end])) {
      ++run_end;
    }
    out.append(text, pos, run_end - pos);
    if (run_end == text.size()) break;
    const char c = text[run_end];
    pos = run_end + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {  // The remaining control bytes.
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                      static_cast<unsigned>(c));
        out += buffer;
      }
    }
  }
  out.push_back('"');
}

void AppendDouble(double value, std::string& out) {
  if (std::isnan(value) || std::isinf(value)) {
    // JSON has no NaN/Inf; store null like most encoders do.
    out += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

}  // namespace

StatusOr<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

Json::Type Json::type() const {
  return static_cast<Type>(value_.index());
}

bool Json::AsBool() const {
  ADA_CHECK(is_bool());
  return std::get<bool>(value_);
}

int64_t Json::AsInt() const {
  ADA_CHECK(is_int());
  return std::get<int64_t>(value_);
}

double Json::AsDouble() const {
  if (is_int()) return static_cast<double>(std::get<int64_t>(value_));
  ADA_CHECK(is_double());
  return std::get<double>(value_);
}

const std::string& Json::AsString() const {
  ADA_CHECK(is_string());
  return std::get<std::string>(value_);
}

const Json::Array& Json::AsArray() const {
  ADA_CHECK(is_array());
  return std::get<Array>(value_);
}

const Json::Object& Json::AsObject() const {
  ADA_CHECK(is_object());
  return std::get<Object>(value_);
}

Json::Object& Json::MutableObject() {
  ADA_CHECK(is_object());
  return std::get<Object>(value_);
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Object& object = std::get<Object>(value_);
  auto it = object.find(std::string(key));
  if (it == object.end()) return nullptr;
  return &it->second;
}

void Json::DumpTo(std::string& out, int indent, int depth) const {
  auto newline = [&](int level) {
    if (indent > 0) {
      out.push_back('\n');
      out.append(static_cast<size_t>(indent * level), ' ');
    }
  };
  switch (type()) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += std::get<bool>(value_) ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(std::get<int64_t>(value_));
      break;
    case Type::kDouble:
      AppendDouble(std::get<double>(value_), out);
      break;
    case Type::kString:
      AppendEscaped(std::get<std::string>(value_), out);
      break;
    case Type::kArray: {
      const Array& items = std::get<Array>(value_);
      if (items.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(depth + 1);
        items[i].DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& fields = std::get<Object>(value_);
      if (fields.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : fields) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        AppendEscaped(key, out);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        value.DumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string Json::Pretty() const {
  std::string out;
  DumpTo(out, /*indent=*/2, /*depth=*/0);
  return out;
}

}  // namespace common
}  // namespace adahealth
