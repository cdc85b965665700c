#include "kdb/aggregate.h"

#include <algorithm>

namespace adahealth {
namespace kdb {

using common::Json;

std::map<std::string, int64_t> GroupCount(const Collection& collection,
                                          const std::string& path,
                                          const Query& filter) {
  std::map<std::string, int64_t> counts;
  for (const Document& document : collection.documents()) {
    if (!filter.Matches(document)) continue;
    const Json* field = document.Get(path);
    ++counts[field != nullptr ? field->Dump() : "<missing>"];
  }
  return counts;
}

FieldStats Aggregate(const Collection& collection, const std::string& path,
                     const Query& filter) {
  FieldStats stats;
  for (const Document& document : collection.documents()) {
    if (!filter.Matches(document)) continue;
    const Json* field = document.Get(path);
    if (field == nullptr || !field->is_number()) continue;
    double value = field->AsDouble();
    if (stats.count == 0) {
      stats.min = value;
      stats.max = value;
    } else {
      stats.min = std::min(stats.min, value);
      stats.max = std::max(stats.max, value);
    }
    stats.sum += value;
    ++stats.count;
  }
  if (stats.count > 0) {
    stats.mean = stats.sum / static_cast<double>(stats.count);
  }
  return stats;
}

}  // namespace kdb
}  // namespace adahealth
