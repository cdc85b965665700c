// Bidirectional mapping between examination-type ids and names.
#ifndef ADAHEALTH_DATASET_EXAM_DICTIONARY_H_
#define ADAHEALTH_DATASET_EXAM_DICTIONARY_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dataset/exam_record.h"

namespace adahealth {
namespace dataset {

/// Dense dictionary of examination types. Ids are assigned in insertion
/// order starting at 0.
class ExamDictionary {
 public:
  ExamDictionary() = default;

  /// Adds `name` if absent; returns its id either way.
  ExamTypeId Intern(std::string_view name);

  /// Returns the id for `name`, or NOT_FOUND.
  [[nodiscard]] common::StatusOr<ExamTypeId> Lookup(std::string_view name) const;

  /// Returns the name of `id`. Requires 0 <= id < size().
  const std::string& Name(ExamTypeId id) const;

  size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

  const std::vector<std::string>& names() const { return names_; }

 private:
  /// Transparent hash: Intern and Lookup probe with the caller's
  /// string_view and copy a name only when it is new.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, ExamTypeId, NameHash, std::equal_to<>>
      index_;
};

}  // namespace dataset
}  // namespace adahealth

#endif  // ADAHEALTH_DATASET_EXAM_DICTIONARY_H_
