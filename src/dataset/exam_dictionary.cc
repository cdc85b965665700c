#include "dataset/exam_dictionary.h"

#include "common/check.h"

namespace adahealth {
namespace dataset {

ExamTypeId ExamDictionary::Intern(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  ExamTypeId id = static_cast<ExamTypeId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

common::StatusOr<ExamTypeId> ExamDictionary::Lookup(
    std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return common::NotFoundError("unknown exam type: " + std::string(name));
  }
  return it->second;
}

const std::string& ExamDictionary::Name(ExamTypeId id) const {
  // invariant: ids come from Intern/Lookup on this dictionary; an
  // out-of-range id is a programmer error (Lookup returns Status for
  // unknown *names*, the user-facing direction).
  ADA_CHECK_GE(id, 0);
  ADA_CHECK_LT(static_cast<size_t>(id), names_.size());
  return names_[static_cast<size_t>(id)];
}

}  // namespace dataset
}  // namespace adahealth
