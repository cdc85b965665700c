#include "patterns/generalized.h"

#include <map>

#include <gtest/gtest.h>
#include "dataset/synthetic_cohort.h"

namespace adahealth {
namespace patterns {
namespace {

TEST(GeneralizedTest, MinesAllThreeLevels) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  GeneralizedMiningOptions options;
  options.min_support_level0 = 0.30;
  options.min_support_level1 = 0.40;
  options.min_support_level2 = 0.50;
  options.max_itemset_size = 3;
  auto itemsets =
      MineGeneralized(cohort->log, cohort->taxonomy, options);
  ASSERT_TRUE(itemsets.ok());
  bool level_seen[3] = {false, false, false};
  for (const auto& itemset : itemsets.value()) {
    ASSERT_GE(itemset.level, 0);
    ASSERT_LE(itemset.level, 2);
    level_seen[itemset.level] = true;
  }
  EXPECT_TRUE(level_seen[0]);
  EXPECT_TRUE(level_seen[1]);
  EXPECT_TRUE(level_seen[2]);
}

TEST(GeneralizedTest, HigherLevelsAggregateSupport) {
  // The support of a group node is at least the max support of its
  // leaf exams (it aggregates their patients).
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  GeneralizedMiningOptions options;
  options.min_support_level0 = 0.05;
  options.min_support_level1 = 0.05;
  options.min_support_level2 = 0.05;
  options.max_itemset_size = 1;
  auto itemsets =
      MineGeneralized(cohort->log, cohort->taxonomy, options);
  ASSERT_TRUE(itemsets.ok());

  const dataset::Taxonomy& taxonomy = cohort->taxonomy;
  std::map<ItemId, int64_t> support_by_node;
  for (const auto& itemset : itemsets.value()) {
    if (itemset.items.size() == 1) {
      support_by_node[itemset.items[0]] = itemset.support;
    }
  }
  for (const auto& [node, support] : support_by_node) {
    if (taxonomy.LevelOf(node) != 0) continue;
    ItemId group_node = taxonomy.GroupNode(taxonomy.GroupOfLeaf(node));
    auto group_it = support_by_node.find(group_node);
    if (group_it != support_by_node.end()) {
      EXPECT_GE(group_it->second, support);
    }
  }
}

TEST(GeneralizedTest, ItemsBelongToTheirLevel) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  GeneralizedMiningOptions options;
  options.max_itemset_size = 2;
  auto itemsets =
      MineGeneralized(cohort->log, cohort->taxonomy, options);
  ASSERT_TRUE(itemsets.ok());
  for (const auto& itemset : itemsets.value()) {
    for (ItemId item : itemset.items) {
      EXPECT_EQ(cohort->taxonomy.LevelOf(item), itemset.level);
    }
  }
}

TEST(GeneralizedTest, RejectsBadThresholds) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  GeneralizedMiningOptions options;
  options.min_support_level1 = 0.0;
  EXPECT_FALSE(
      MineGeneralized(cohort->log, cohort->taxonomy, options).ok());
  options.min_support_level1 = 1.5;
  EXPECT_FALSE(
      MineGeneralized(cohort->log, cohort->taxonomy, options).ok());
}

TEST(GeneralizedTest, FormatUsesHumanNames) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  const dataset::Taxonomy& taxonomy = cohort->taxonomy;
  GeneralizedItemset leaf_itemset{0, {0}, 42};
  std::string leaf_text =
      FormatGeneralizedItemset(leaf_itemset, cohort->log, taxonomy);
  EXPECT_NE(leaf_text.find(cohort->log.dictionary().Name(0)),
            std::string::npos);
  EXPECT_NE(leaf_text.find("support=42"), std::string::npos);

  GeneralizedItemset group_itemset{1, {taxonomy.GroupNode(0)}, 7};
  std::string group_text =
      FormatGeneralizedItemset(group_itemset, cohort->log, taxonomy);
  EXPECT_NE(group_text.find(taxonomy.GroupName(0)), std::string::npos);

  GeneralizedItemset category_itemset{2, {taxonomy.CategoryNode(0)}, 9};
  std::string category_text = FormatGeneralizedItemset(
      category_itemset, cohort->log, taxonomy);
  EXPECT_NE(category_text.find(taxonomy.CategoryName(0)),
            std::string::npos);
}

}  // namespace
}  // namespace patterns
}  // namespace adahealth
