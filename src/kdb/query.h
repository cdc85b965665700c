// Declarative filter over K-DB documents: a conjunction of per-path
// conditions, evaluated against dotted paths.
#ifndef ADAHEALTH_KDB_QUERY_H_
#define ADAHEALTH_KDB_QUERY_H_

#include <string>
#include <vector>

#include "kdb/document.h"

namespace adahealth {
namespace kdb {

/// Comparison operator of one condition.
enum class QueryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kExists,
};

/// One path/op/value condition. For kExists the value is ignored.
struct Condition {
  std::string path;
  QueryOp op = QueryOp::kEq;
  common::Json value;
};

/// Conjunction of conditions (empty query matches everything).
/// Comparison semantics: numbers compare numerically (int vs double
/// allowed); strings lexicographically; booleans by value; ordering
/// ops on mismatched or non-scalar types never match; kNe matches when
/// kEq would not, including missing fields.
class Query {
 public:
  Query() = default;

  Query& Where(std::string path, QueryOp op, common::Json value);
  Query& Eq(std::string path, common::Json value);

  bool Matches(const Document& document) const;

  const std::vector<Condition>& conditions() const { return conditions_; }

 private:
  std::vector<Condition> conditions_;
};

}  // namespace kdb
}  // namespace adahealth

#endif  // ADAHEALTH_KDB_QUERY_H_
