#include "dataset/taxonomy.h"

#include "common/check.h"

namespace adahealth {
namespace dataset {

using common::InvalidArgumentError;
using common::StatusOr;

StatusOr<Taxonomy> Taxonomy::Build(std::vector<int32_t> leaf_group,
                                   std::vector<std::string> group_names,
                                   std::vector<int32_t> group_category,
                                   std::vector<std::string> category_names) {
  if (leaf_group.empty() || group_names.empty() || category_names.empty()) {
    return InvalidArgumentError("taxonomy levels must be non-empty");
  }
  if (group_category.size() != group_names.size()) {
    return InvalidArgumentError(
        "group_category and group_names sizes disagree");
  }
  for (int32_t g : leaf_group) {
    if (g < 0 || static_cast<size_t>(g) >= group_names.size()) {
      return InvalidArgumentError("leaf_group index out of range");
    }
  }
  for (int32_t c : group_category) {
    if (c < 0 || static_cast<size_t>(c) >= category_names.size()) {
      return InvalidArgumentError("group_category index out of range");
    }
  }
  Taxonomy taxonomy;
  taxonomy.leaf_group_ = std::move(leaf_group);
  taxonomy.group_names_ = std::move(group_names);
  taxonomy.group_category_ = std::move(group_category);
  taxonomy.category_names_ = std::move(category_names);
  return taxonomy;
}

int32_t Taxonomy::GroupOfLeaf(ExamTypeId exam) const {
  // invariant: ids were produced by this taxonomy (Build
  // validated the level tables); out-of-range is a programmer
  // error, not a data error.
  ADA_CHECK_GE(exam, 0);
  ADA_CHECK_LT(static_cast<size_t>(exam), leaf_group_.size());
  return leaf_group_[static_cast<size_t>(exam)];
}

int32_t Taxonomy::CategoryOfGroup(int32_t group) const {
  // invariant: ids were produced by this taxonomy (Build
  // validated the level tables); out-of-range is a programmer
  // error, not a data error.
  ADA_CHECK_GE(group, 0);
  ADA_CHECK_LT(static_cast<size_t>(group), group_category_.size());
  return group_category_[static_cast<size_t>(group)];
}

int32_t Taxonomy::CategoryOfLeaf(ExamTypeId exam) const {
  return CategoryOfGroup(GroupOfLeaf(exam));
}

const std::string& Taxonomy::GroupName(int32_t group) const {
  // invariant: ids were produced by this taxonomy (Build
  // validated the level tables); out-of-range is a programmer
  // error, not a data error.
  ADA_CHECK_GE(group, 0);
  ADA_CHECK_LT(static_cast<size_t>(group), group_names_.size());
  return group_names_[static_cast<size_t>(group)];
}

const std::string& Taxonomy::CategoryName(int32_t category) const {
  // invariant: ids were produced by this taxonomy (Build
  // validated the level tables); out-of-range is a programmer
  // error, not a data error.
  ADA_CHECK_GE(category, 0);
  ADA_CHECK_LT(static_cast<size_t>(category), category_names_.size());
  return category_names_[static_cast<size_t>(category)];
}

int Taxonomy::LevelOf(TaxonomyNodeId node) const {
  // invariant: ids were produced by this taxonomy (Build
  // validated the level tables); out-of-range is a programmer
  // error, not a data error.
  ADA_CHECK_GE(node, 0);
  size_t id = static_cast<size_t>(node);
  ADA_CHECK_LT(id, num_nodes());
  if (id < num_leaves()) return 0;
  if (id < num_leaves() + num_groups()) return 1;
  return 2;
}

}  // namespace dataset
}  // namespace adahealth
