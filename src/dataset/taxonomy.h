// Three-level examination taxonomy (exam -> group -> category).
//
// Used by (a) the synthetic cohort generator, whose latent clinical
// profiles boost whole exam groups, and (b) generalized pattern mining
// (MeTA-style, paper reference [2]), which mines itemsets at different
// abstraction levels.
#ifndef ADAHEALTH_DATASET_TAXONOMY_H_
#define ADAHEALTH_DATASET_TAXONOMY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataset/exam_record.h"

namespace adahealth {
namespace dataset {

/// Node identifier in the taxonomy's global id space:
///   [0, num_leaves)                      leaf exams (== ExamTypeId)
///   [num_leaves, num_leaves+num_groups)  exam groups
///   [.., .. + num_categories)            top-level categories
using TaxonomyNodeId = int32_t;

/// Immutable 3-level taxonomy over examination types.
class Taxonomy {
 public:
  /// Creates an empty taxonomy (no nodes); useful as a container
  /// default. Use Build() to create a populated one.
  Taxonomy() = default;

  /// Builds a taxonomy.
  /// `leaf_group[e]` is the group index of exam `e`;
  /// `group_category[g]` is the category index of group `g`.
  /// Fails if any index is out of range or a level is empty.
  [[nodiscard]] static common::StatusOr<Taxonomy> Build(
      std::vector<int32_t> leaf_group, std::vector<std::string> group_names,
      std::vector<int32_t> group_category,
      std::vector<std::string> category_names);

  size_t num_leaves() const { return leaf_group_.size(); }
  size_t num_groups() const { return group_names_.size(); }
  size_t num_categories() const { return category_names_.size(); }
  /// Total nodes across all three levels.
  size_t num_nodes() const {
    return num_leaves() + num_groups() + num_categories();
  }

  /// Group index of a leaf exam.
  int32_t GroupOfLeaf(ExamTypeId exam) const;
  /// Category index of a group.
  int32_t CategoryOfGroup(int32_t group) const;
  /// Category index of a leaf exam.
  int32_t CategoryOfLeaf(ExamTypeId exam) const;

  const std::string& GroupName(int32_t group) const;
  const std::string& CategoryName(int32_t category) const;

  /// Global node id of group `group`.
  TaxonomyNodeId GroupNode(int32_t group) const {
    return static_cast<TaxonomyNodeId>(num_leaves() + group);
  }
  /// Global node id of category `category`.
  TaxonomyNodeId CategoryNode(int32_t category) const {
    return static_cast<TaxonomyNodeId>(num_leaves() + num_groups() + category);
  }

  /// Abstraction level of a node: 0 = leaf, 1 = group, 2 = category.
  int LevelOf(TaxonomyNodeId node) const;

 private:
  std::vector<int32_t> leaf_group_;
  std::vector<std::string> group_names_;
  std::vector<int32_t> group_category_;
  std::vector<std::string> category_names_;
};

}  // namespace dataset
}  // namespace adahealth

#endif  // ADAHEALTH_DATASET_TAXONOMY_H_
