#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "test_util.h"

namespace adahealth {
namespace common {
namespace {

TEST(JsonTest, DefaultIsNull) {
  Json value;
  EXPECT_TRUE(value.type() == Json::Type::kNull);
  EXPECT_EQ(value.Dump(), "null");
}

TEST(JsonTest, ScalarConstruction) {
  EXPECT_TRUE(Json(true).AsBool());
  EXPECT_EQ(Json(int64_t{42}).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Json(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Json("text").AsString(), "text");
}

TEST(JsonTest, IntIsAlsoNumericDouble) {
  Json value(int64_t{7});
  EXPECT_TRUE(value.is_number());
  EXPECT_DOUBLE_EQ(value.AsDouble(), 7.0);
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Json::Parse("null")->type() == Json::Type::kNull);
  EXPECT_TRUE(Json::Parse("true")->AsBool());
  EXPECT_FALSE(Json::Parse("false")->AsBool());
  EXPECT_EQ(Json::Parse("-17")->AsInt(), -17);
  EXPECT_DOUBLE_EQ(Json::Parse("3.25")->AsDouble(), 3.25);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, IntegerVsDoubleTypes) {
  EXPECT_TRUE(Json::Parse("5")->is_int());
  EXPECT_TRUE(Json::Parse("5.0")->is_double());
  EXPECT_TRUE(Json::Parse("5e0")->is_double());
}

TEST(JsonParseTest, HugeIntegerFallsBackToDouble) {
  auto value = Json::Parse("123456789012345678901234567890");
  ASSERT_TRUE(value.ok());
  EXPECT_TRUE(value->is_double());
}

TEST(JsonParseTest, Arrays) {
  auto value = Json::Parse("[1, 2, [3]]");
  ASSERT_TRUE(value.ok());
  ASSERT_TRUE(value->is_array());
  EXPECT_EQ(value->AsArray().size(), 3u);
  EXPECT_EQ(value->AsArray()[2].AsArray()[0].AsInt(), 3);
}

TEST(JsonParseTest, Objects) {
  auto value = Json::Parse(R"({"a": 1, "b": {"c": true}})");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->Find("a")->AsInt(), 1);
  EXPECT_TRUE(value->Find("b")->Find("c")->AsBool());
  EXPECT_EQ(value->Find("missing"), nullptr);
}

TEST(JsonParseTest, StringEscapes) {
  auto value = Json::Parse(R"("a\"b\\c\nd\tA")");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsString(), "a\"b\\c\nd\tA");
}

TEST(JsonParseTest, UnicodeEscapeMultibyte) {
  auto value = Json::Parse("\"\\u00e9\"");  // é as a \u escape.
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsString(), "\xc3\xa9");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{'a': 1}").ok());
}

TEST(JsonParseTest, RejectsControlCharacterInString) {
  std::string bad = "\"a\x01b\"";
  EXPECT_FALSE(Json::Parse(bad).ok());
}

TEST(JsonDumpTest, CompactRoundTrip) {
  const char* text = R"({"arr":[1,2.5,"x"],"flag":true,"nil":null})";
  auto value = Json::Parse(text);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->Dump(), text);
}

TEST(JsonDumpTest, EscapesSpecials) {
  Json value(std::string("tab\there\"quote\""));
  EXPECT_EQ(value.Dump(), R"("tab\there\"quote\"")");
}

TEST(JsonDumpTest, ObjectKeysSorted) {
  Json::Object object;
  object["zebra"] = Json(1);
  object["apple"] = Json(2);
  EXPECT_EQ(Json(std::move(object)).Dump(), R"({"apple":2,"zebra":1})");
}

TEST(JsonDumpTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(Json(std::nan("")).Dump(), "null");
}

TEST(JsonDumpTest, PrettyIsReparseable) {
  auto value = Json::Parse(R"({"a":[1,2],"b":{"c":"d"}})");
  ASSERT_TRUE(value.ok());
  auto reparsed = Json::Parse(value->Pretty());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value(), value.value());
}

TEST(JsonEqualityTest, TypeSensitive) {
  EXPECT_EQ(Json(int64_t{1}), Json(int64_t{1}));
  EXPECT_FALSE(Json(int64_t{1}) == Json(1.0));  // Int vs double.
  EXPECT_EQ(Json(Json::Array{Json(1), Json("x")}),
            Json(Json::Array{Json(1), Json("x")}));
}

TEST(JsonParseTest, DeepNestingRejected) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto value = Json::Parse("  \n\t{ \"a\" :\t1 }  ");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->Find("a")->AsInt(), 1);
}


// ---------------------------------------------------------------------
// String parsing and escaping against the byte-at-a-time versions they
// replaced, kept verbatim here as the oracle.

class OracleStringParser {
 public:
  explicit OracleStringParser(std::string_view text) : text_(text) {}

  /// A whole document that is one string value.
  StatusOr<std::string> ParseDocument() {
    SkipWhitespace();
    StatusOr<std::string> value = ParseRawString();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
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

  StatusOr<std::string> ParseRawString() {
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
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
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      } else {
        out.push_back(c);
        ++pos_;
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

  std::string_view text_;
  size_t pos_ = 0;
};

void OracleAppendEscaped(const std::string& text, std::string& out) {
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// A string document: an opening quote, then random pieces (any byte,
/// every escape, \u with valid, invalid and cut-short hex, plain runs),
/// usually a closing quote, sometimes trailing bytes.
std::string GenerateStringDocument(Rng& rng) {
  static const char* const kEscapes[] = {"\\\"", "\\\\", "\\/", "\\b",
                                         "\\f",  "\\n",  "\\r", "\\t",
                                         "\\x",  "\\",   "\\u"};
  static const char kHex[] = "0123456789abcdefABCDEFgG";
  std::string text = "\"";
  const int64_t pieces = rng.UniformInt(0, 12);
  for (int64_t p = 0; p < pieces; ++p) {
    const int64_t kind = rng.UniformInt(0, 3);
    if (kind == 0) {
      text.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    } else if (kind == 1) {
      text += kEscapes[rng.UniformInt(0, 10)];
    } else if (kind == 2) {
      text += "\\u";
      const int64_t digits = rng.UniformInt(0, 4);
      for (int64_t d = 0; d < digits; ++d) {
        text.push_back(kHex[rng.UniformInt(0, sizeof(kHex) - 2)]);
      }
    } else {
      text.append(static_cast<size_t>(rng.UniformInt(1, 80)),
                  static_cast<char>(rng.UniformInt(0x20, 0x7e)));
    }
  }
  if (test::Bernoulli(rng, 0.9)) text.push_back('"');
  if (test::Bernoulli(rng, 0.1)) {
    text += test::Bernoulli(rng, 0.5) ? " \n" : " x";
  }
  return text;
}

TEST(JsonStringOracleTest, ParseMatchesByteAtATimeParse) {
  Rng rng(23);
  int accepted = 0;
  for (int doc = 0; doc < 50000; ++doc) {
    const std::string text = GenerateStringDocument(rng);
    StatusOr<std::string> want = OracleStringParser(text).ParseDocument();
    StatusOr<Json> got = Json::Parse(text);
    ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                   << want.status().ToString();
    if (want.ok()) {
      ASSERT_TRUE(got->is_string());
      ASSERT_EQ(got->AsString(), want.value());
      ++accepted;
    } else {
      ASSERT_EQ(got.status().message(), want.status().message());
    }
  }
  EXPECT_GT(accepted, 5000);
  // Every \u code point of the BMP decodes the same way.
  for (uint32_t code = 0; code <= 0xffff; ++code) {
    char text[16];
    std::snprintf(text, sizeof(text), "\"\\u%04X\"", code);
    ASSERT_EQ(Json::Parse(text)->AsString(),
              OracleStringParser(text).ParseDocument().value());
  }
}

TEST(JsonStringOracleTest, EscapeMatchesByteAtATimeEscape) {
  // Every single byte, then random strings over all byte values.
  std::vector<std::string> inputs;
  for (int byte = 0; byte < 256; ++byte) {
    inputs.push_back(std::string(1, static_cast<char>(byte)));
  }
  Rng rng(24);
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    const int64_t length = rng.UniformInt(0, 40);
    for (int64_t j = 0; j < length; ++j) {
      // Half plain runs, half any byte.
      text.push_back(static_cast<char>(test::Bernoulli(rng, 0.5)
                                           ? rng.UniformInt(0x20, 0x7e)
                                           : rng.UniformInt(0, 255)));
    }
    inputs.push_back(std::move(text));
  }
  for (const std::string& text : inputs) {
    std::string want;
    OracleAppendEscaped(text, want);
    const std::string got = Json(text).Dump();
    ASSERT_EQ(got, want);
    // And the parser reads it back.
    ASSERT_EQ(Json::Parse(got)->AsString(), text);
  }
}

}  // namespace
}  // namespace common
}  // namespace adahealth
