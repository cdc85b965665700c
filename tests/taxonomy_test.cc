#include "dataset/taxonomy.h"

#include <vector>

#include <gtest/gtest.h>

namespace adahealth {
namespace dataset {
namespace {

Taxonomy MakeTaxonomy() {
  // 5 leaves, 3 groups, 2 categories.
  auto taxonomy = Taxonomy::Build(
      /*leaf_group=*/{0, 0, 1, 2, 2},
      /*group_names=*/{"glycemic", "eye", "cardio"},
      /*group_category=*/{0, 1, 1},
      /*category_names=*/{"laboratory", "specialist"});
  EXPECT_TRUE(taxonomy.ok());
  return std::move(taxonomy).value();
}

TEST(TaxonomyTest, Sizes) {
  Taxonomy taxonomy = MakeTaxonomy();
  EXPECT_EQ(taxonomy.num_leaves(), 5u);
  EXPECT_EQ(taxonomy.num_groups(), 3u);
  EXPECT_EQ(taxonomy.num_categories(), 2u);
  EXPECT_EQ(taxonomy.num_nodes(), 10u);
}

TEST(TaxonomyTest, GroupAndCategoryLookups) {
  Taxonomy taxonomy = MakeTaxonomy();
  EXPECT_EQ(taxonomy.GroupOfLeaf(1), 0);
  EXPECT_EQ(taxonomy.GroupOfLeaf(3), 2);
  EXPECT_EQ(taxonomy.CategoryOfGroup(0), 0);
  EXPECT_EQ(taxonomy.CategoryOfLeaf(2), 1);
  EXPECT_EQ(taxonomy.GroupName(1), "eye");
  EXPECT_EQ(taxonomy.CategoryName(0), "laboratory");
}

TEST(TaxonomyTest, GlobalNodeIds) {
  Taxonomy taxonomy = MakeTaxonomy();
  EXPECT_EQ(taxonomy.GroupNode(0), 5);
  EXPECT_EQ(taxonomy.GroupNode(2), 7);
  EXPECT_EQ(taxonomy.CategoryNode(0), 8);
  EXPECT_EQ(taxonomy.CategoryNode(1), 9);
}

TEST(TaxonomyTest, Levels) {
  Taxonomy taxonomy = MakeTaxonomy();
  EXPECT_EQ(taxonomy.LevelOf(0), 0);
  EXPECT_EQ(taxonomy.LevelOf(4), 0);
  EXPECT_EQ(taxonomy.LevelOf(5), 1);
  EXPECT_EQ(taxonomy.LevelOf(7), 1);
  EXPECT_EQ(taxonomy.LevelOf(8), 2);
  EXPECT_EQ(taxonomy.LevelOf(9), 2);
}

// Parent of a node in the global id space; -1 for categories (roots).
TaxonomyNodeId ParentOf(const Taxonomy& taxonomy, TaxonomyNodeId node) {
  const auto leaves = static_cast<TaxonomyNodeId>(taxonomy.num_leaves());
  switch (taxonomy.LevelOf(node)) {
    case 0:
      return taxonomy.GroupNode(taxonomy.GroupOfLeaf(node));
    case 1:
      return taxonomy.CategoryNode(taxonomy.CategoryOfGroup(node - leaves));
    default:
      return -1;
  }
}

// Leaf exam ids descending from `node` (the node itself if a leaf).
std::vector<ExamTypeId> LeavesUnder(const Taxonomy& taxonomy,
                                    TaxonomyNodeId node) {
  std::vector<ExamTypeId> leaves;
  for (size_t e = 0; e < taxonomy.num_leaves(); ++e) {
    const auto leaf = static_cast<ExamTypeId>(e);
    TaxonomyNodeId ancestor = leaf;
    while (ancestor != node && ancestor != -1) {
      ancestor = ParentOf(taxonomy, ancestor);
    }
    if (ancestor == node) leaves.push_back(leaf);
  }
  return leaves;
}

TEST(TaxonomyTest, Parents) {
  Taxonomy taxonomy = MakeTaxonomy();
  EXPECT_EQ(ParentOf(taxonomy, 0), taxonomy.GroupNode(0));
  EXPECT_EQ(ParentOf(taxonomy, 2), taxonomy.GroupNode(1));
  EXPECT_EQ(ParentOf(taxonomy, taxonomy.GroupNode(1)),
            taxonomy.CategoryNode(1));
  EXPECT_EQ(ParentOf(taxonomy, taxonomy.CategoryNode(0)), -1);
}

TEST(TaxonomyTest, LeavesUnder) {
  Taxonomy taxonomy = MakeTaxonomy();
  EXPECT_EQ(LeavesUnder(taxonomy, 3), (std::vector<ExamTypeId>{3}));
  EXPECT_EQ(LeavesUnder(taxonomy, taxonomy.GroupNode(0)),
            (std::vector<ExamTypeId>{0, 1}));
  EXPECT_EQ(LeavesUnder(taxonomy, taxonomy.CategoryNode(1)),
            (std::vector<ExamTypeId>{2, 3, 4}));
}

TEST(TaxonomyTest, BuildRejectsBadInput) {
  EXPECT_FALSE(Taxonomy::Build({}, {"g"}, {0}, {"c"}).ok());
  EXPECT_FALSE(Taxonomy::Build({0}, {}, {}, {"c"}).ok());
  EXPECT_FALSE(Taxonomy::Build({1}, {"g"}, {0}, {"c"}).ok());   // Leaf oob.
  EXPECT_FALSE(Taxonomy::Build({0}, {"g"}, {1}, {"c"}).ok());   // Group oob.
  EXPECT_FALSE(Taxonomy::Build({0}, {"g"}, {0, 0}, {"c"}).ok());  // Sizes.
}

}  // namespace
}  // namespace dataset
}  // namespace adahealth
