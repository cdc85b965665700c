#include "kdb/query.h"

namespace adahealth {
namespace kdb {

using common::Json;

namespace {

/// Three-way comparison of scalar JSON values where ordered comparison
/// makes sense. Returns false in `comparable` for mixed or non-scalar
/// types (other than int/double mixes).
struct CompareResult {
  bool comparable = false;
  int order = 0;  // -1, 0, 1.
};

CompareResult CompareScalars(const Json& a, const Json& b) {
  CompareResult result;
  if (a.is_number() && b.is_number()) {
    double da = a.AsDouble();
    double db = b.AsDouble();
    result.comparable = true;
    result.order = da < db ? -1 : (da > db ? 1 : 0);
    return result;
  }
  if (a.is_string() && b.is_string()) {
    result.comparable = true;
    int cmp = a.AsString().compare(b.AsString());
    result.order = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    return result;
  }
  if (a.is_bool() && b.is_bool()) {
    result.comparable = true;
    result.order = static_cast<int>(a.AsBool()) -
                   static_cast<int>(b.AsBool());
    return result;
  }
  return result;
}

bool ValuesEqual(const Json& a, const Json& b) {
  // Numeric equality across int/double; otherwise structural equality.
  if (a.is_number() && b.is_number()) return a.AsDouble() == b.AsDouble();
  return a == b;
}

}  // namespace

Query& Query::Where(std::string path, QueryOp op, Json value) {
  conditions_.push_back({std::move(path), op, std::move(value)});
  return *this;
}

Query& Query::Eq(std::string path, Json value) {
  return Where(std::move(path), QueryOp::kEq, std::move(value));
}

bool Query::Matches(const Document& document) const {
  for (const Condition& condition : conditions_) {
    const Json* field = document.Get(condition.path);
    switch (condition.op) {
      case QueryOp::kExists:
        if (field == nullptr) return false;
        break;
      case QueryOp::kEq:
        if (field == nullptr || !ValuesEqual(*field, condition.value)) {
          return false;
        }
        break;
      case QueryOp::kNe:
        if (field != nullptr && ValuesEqual(*field, condition.value)) {
          return false;
        }
        break;
      default: {
        if (field == nullptr) return false;
        CompareResult cmp = CompareScalars(*field, condition.value);
        if (!cmp.comparable) return false;
        bool ok = false;
        switch (condition.op) {
          case QueryOp::kLt: ok = cmp.order < 0; break;
          case QueryOp::kLe: ok = cmp.order <= 0; break;
          case QueryOp::kGt: ok = cmp.order > 0; break;
          case QueryOp::kGe: ok = cmp.order >= 0; break;
          default: break;
        }
        if (!ok) return false;
      }
    }
  }
  return true;
}

}  // namespace kdb
}  // namespace adahealth
