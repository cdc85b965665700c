// JSON value model, parser and serializer.
//
// This is the storage format of the K-DB document store (JSON-lines
// persistence) and the wire format of `kdb::Document`. The value model
// distinguishes integers from doubles so that counters survive
// round-trips exactly.
#ifndef ADAHEALTH_COMMON_JSON_H_
#define ADAHEALTH_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace adahealth {
namespace common {

/// A JSON value: null, bool, int64, double, string, array or object.
/// Copyable; arrays/objects copy deeply.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  // std::map keeps object keys sorted, giving canonical serialization.
  using Object = std::map<std::string, Json>;

  /// Constructs null.
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool value) : value_(value) {}
  Json(int value) : value_(static_cast<int64_t>(value)) {}
  Json(int64_t value) : value_(value) {}
  Json(double value) : value_(value) {}
  Json(const char* value) : value_(std::string(value)) {}
  Json(std::string value) : value_(std::move(value)) {}
  Json(Array value) : value_(std::move(value)) {}
  Json(Object value) : value_(std::move(value)) {}

  /// Parses a JSON document. Accepts exactly one top-level value with
  /// optional surrounding whitespace.
  [[nodiscard]] static StatusOr<Json> Parse(std::string_view text);

  Type type() const;
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Typed accessors; ADA_CHECK on type mismatch (programmer error).
  bool AsBool() const;
  int64_t AsInt() const;
  /// Returns the numeric value as double (works for both int and double).
  double AsDouble() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;
  Object& MutableObject();

  /// Object field lookup; returns nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;

  /// Serializes to compact JSON (no insignificant whitespace).
  std::string Dump() const;

  /// Serializes with 2-space indentation for human inspection.
  std::string Pretty() const;

  /// Deep structural equality. Int and double compare unequal even when
  /// numerically identical (types are part of the value).
  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      value_;
};

}  // namespace common
}  // namespace adahealth

#endif  // ADAHEALTH_COMMON_JSON_H_
