// Aggregation over K-DB collections — the query shapes the ADA-HEALTH
// UI layer needs for knowledge navigation ("group feedback by
// interest", "quality statistics per kind", ...).
#ifndef ADAHEALTH_KDB_AGGREGATE_H_
#define ADAHEALTH_KDB_AGGREGATE_H_

#include <map>
#include <string>

#include "kdb/collection.h"
#include "kdb/query.h"

namespace adahealth {
namespace kdb {

/// Number of matching documents per distinct value of `path` (the
/// value's compact JSON rendering is the key). Documents missing the
/// path are counted under "<missing>".
std::map<std::string, int64_t> GroupCount(const Collection& collection,
                                          const std::string& path,
                                          const Query& filter = Query());

/// Statistics of a numeric field over the matching documents.
/// Non-numeric and missing fields are skipped; count reflects only the
/// numeric occurrences.
struct FieldStats {
  int64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

FieldStats Aggregate(const Collection& collection, const std::string& path,
                     const Query& filter = Query());

}  // namespace kdb
}  // namespace adahealth

#endif  // ADAHEALTH_KDB_AGGREGATE_H_
