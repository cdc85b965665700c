#include "patterns/fpgrowth.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "common/string_util.h"
#include "dataset/synthetic_cohort.h"
#include "patterns/transactions.h"
#include "test_util.h"

namespace adahealth {
namespace patterns {
namespace {

TransactionDb MakeDb() {
  TransactionDb db;
  db.num_items = 5;
  db.transactions = {
      {0, 1, 4}, {0, 3}, {0, 2},    {0, 1, 3}, {1, 2},
      {0, 2},    {1, 2}, {0, 1, 2, 4}, {0, 1, 2},
  };
  return db;
}

TransactionDb RandomDb(size_t num_transactions, size_t num_items,
                       double item_probability, uint64_t seed) {
  common::Rng rng(seed);
  TransactionDb db;
  db.num_items = num_items;
  for (size_t t = 0; t < num_transactions; ++t) {
    std::vector<ItemId> transaction;
    for (size_t i = 0; i < num_items; ++i) {
      if (test::Bernoulli(rng, item_probability)) {
        transaction.push_back(static_cast<ItemId>(i));
      }
    }
    db.transactions.push_back(std::move(transaction));
  }
  return db;
}

TEST(FpGrowthTest, MatchesAprioriOnTextbookDb) {
  for (int64_t min_support : {1, 2, 3, 4, 5}) {
    MiningOptions options;
    options.min_support_count = min_support;
    auto apriori = MineApriori(MakeDb(), options);
    auto fpgrowth = MineFpGrowth(MakeDb(), options);
    ASSERT_TRUE(apriori.ok());
    ASSERT_TRUE(fpgrowth.ok());
    EXPECT_EQ(apriori.value(), fpgrowth.value())
        << "min_support " << min_support;
  }
}

// Property test: FP-growth and Apriori agree on random databases across
// densities and thresholds.
struct ParityCase {
  size_t num_transactions;
  size_t num_items;
  double density;
  int64_t min_support;
};

// Names each case in test listings (and so in CTest), e.g.
// "n50_items8_d030_s5", instead of a dump of the struct's bytes.
void PrintTo(const ParityCase& c, std::ostream* os) {
  *os << common::StrFormat("n%zu_items%zu_d%03ld_s%lld", c.num_transactions,
                           c.num_items, std::lround(c.density * 100),
                           static_cast<long long>(c.min_support));
}

class MinerParityTest : public testing::TestWithParam<ParityCase> {};

TEST_P(MinerParityTest, FpGrowthEqualsApriori) {
  const ParityCase& param = GetParam();
  TransactionDb db = RandomDb(param.num_transactions, param.num_items,
                              param.density, /*seed=*/param.num_items * 31 +
                                  param.num_transactions);
  MiningOptions options;
  options.min_support_count = param.min_support;
  auto apriori = MineApriori(db, options);
  auto fpgrowth = MineFpGrowth(db, options);
  ASSERT_TRUE(apriori.ok());
  ASSERT_TRUE(fpgrowth.ok());
  EXPECT_EQ(apriori.value(), fpgrowth.value());
}

INSTANTIATE_TEST_SUITE_P(
    RandomDatabases, MinerParityTest,
    testing::Values(ParityCase{50, 8, 0.30, 5}, ParityCase{50, 8, 0.30, 2},
                    ParityCase{100, 10, 0.20, 8},
                    ParityCase{100, 10, 0.50, 20},
                    ParityCase{200, 6, 0.40, 10},
                    ParityCase{30, 12, 0.25, 3},
                    ParityCase{80, 15, 0.15, 4},
                    ParityCase{60, 5, 0.70, 12}));

TEST(FpGrowthTest, MaxItemsetSizeCaps) {
  MiningOptions options;
  options.min_support_count = 1;
  options.max_itemset_size = 2;
  auto fpgrowth = MineFpGrowth(MakeDb(), options);
  ASSERT_TRUE(fpgrowth.ok());
  auto apriori = MineApriori(MakeDb(), options);
  ASSERT_TRUE(apriori.ok());
  EXPECT_EQ(fpgrowth.value(), apriori.value());
  for (const auto& itemset : fpgrowth.value()) {
    EXPECT_LE(itemset.items.size(), 2u);
  }
}

TEST(FpGrowthTest, EmptyDatabase) {
  TransactionDb db;
  db.num_items = 4;
  MiningOptions options;
  options.min_support_count = 1;
  auto itemsets = MineFpGrowth(db, options);
  ASSERT_TRUE(itemsets.ok());
  EXPECT_TRUE(itemsets->empty());
}

TEST(FpGrowthTest, RejectsInvalidSupport) {
  MiningOptions options;
  options.min_support_count = 0;
  EXPECT_FALSE(MineFpGrowth(MakeDb(), options).ok());
}

TEST(FpGrowthTest, SinglePathDatabase) {
  // Transactions nested like a chain exercise the single-path shortcut.
  TransactionDb db;
  db.num_items = 4;
  db.transactions = {{0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}};
  MiningOptions options;
  options.min_support_count = 1;
  auto fpgrowth = MineFpGrowth(db, options);
  auto apriori = MineApriori(db, options);
  ASSERT_TRUE(fpgrowth.ok());
  ASSERT_TRUE(apriori.ok());
  EXPECT_EQ(fpgrowth.value(), apriori.value());
  // 2^4 - 1 itemsets exist with support >= 1.
  EXPECT_EQ(fpgrowth->size(), 15u);
}

TEST(FpGrowthTest, AgreesOnSyntheticCohortTransactions) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  TransactionDb db = BuildTransactions(cohort->log);
  MiningOptions options;
  options.min_support_count = AbsoluteSupport(0.25, db.size());
  options.max_itemset_size = 3;
  auto apriori = MineApriori(db, options);
  auto fpgrowth = MineFpGrowth(db, options);
  ASSERT_TRUE(apriori.ok());
  ASSERT_TRUE(fpgrowth.ok());
  EXPECT_EQ(apriori.value(), fpgrowth.value());
  EXPECT_GT(fpgrowth->size(), 0u);
}

// Filters `itemsets` down to the closed ones (no proper superset with
// the same support). Input may be in any order.
std::vector<FrequentItemset> ClosedItemsets(
    std::vector<FrequentItemset> itemsets) {
  SortCanonical(itemsets);
  std::vector<FrequentItemset> closed;
  for (size_t i = 0; i < itemsets.size(); ++i) {
    bool is_closed = true;
    // A superset with equal support must be strictly larger; canonical
    // order sorts by size, so scan the tail.
    for (size_t j = i + 1; j < itemsets.size(); ++j) {
      if (itemsets[j].items.size() <= itemsets[i].items.size()) continue;
      if (itemsets[j].support != itemsets[i].support) continue;
      if (std::includes(itemsets[j].items.begin(), itemsets[j].items.end(),
                        itemsets[i].items.begin(),
                        itemsets[i].items.end())) {
        is_closed = false;
        break;
      }
    }
    if (is_closed) closed.push_back(itemsets[i]);
  }
  return closed;
}

// Filters `itemsets` down to the maximal ones (no frequent proper
// superset at all). Input may be in any order.
std::vector<FrequentItemset> MaximalItemsets(
    std::vector<FrequentItemset> itemsets) {
  SortCanonical(itemsets);
  std::vector<FrequentItemset> maximal;
  for (size_t i = 0; i < itemsets.size(); ++i) {
    bool is_maximal = true;
    for (size_t j = i + 1; j < itemsets.size(); ++j) {
      if (itemsets[j].items.size() <= itemsets[i].items.size()) continue;
      if (std::includes(itemsets[j].items.begin(), itemsets[j].items.end(),
                        itemsets[i].items.begin(),
                        itemsets[i].items.end())) {
        is_maximal = false;
        break;
      }
    }
    if (is_maximal) maximal.push_back(itemsets[i]);
  }
  return maximal;
}

TEST(ClosedItemsetsTest, FiltersNonClosed) {
  // {0} support 3 is not closed if {0,1} also has support 3.
  std::vector<FrequentItemset> itemsets{
      {{0}, 3}, {{1}, 3}, {{0, 1}, 3}, {{2}, 2}, {{0, 2}, 1}};
  std::vector<FrequentItemset> closed = ClosedItemsets(itemsets);
  auto contains = [&](const std::vector<ItemId>& items) {
    for (const auto& itemset : closed) {
      if (itemset.items == items) return true;
    }
    return false;
  };
  EXPECT_FALSE(contains({0}));
  EXPECT_FALSE(contains({1}));
  EXPECT_TRUE(contains({0, 1}));
  EXPECT_TRUE(contains({2}));   // Superset {0,2} has lower support.
  EXPECT_TRUE(contains({0, 2}));
}

TEST(MaximalItemsetsTest, KeepsOnlySupersetFreeSets) {
  std::vector<FrequentItemset> itemsets{
      {{0}, 5}, {{1}, 4}, {{2}, 3}, {{0, 1}, 3}, {{0, 2}, 2}};
  auto maximal = MaximalItemsets(itemsets);
  auto contains = [&](const std::vector<ItemId>& items) {
    for (const auto& itemset : maximal) {
      if (itemset.items == items) return true;
    }
    return false;
  };
  EXPECT_FALSE(contains({0}));  // Subset of {0,1} and {0,2}.
  EXPECT_FALSE(contains({1}));  // Subset of {0,1}.
  EXPECT_FALSE(contains({2}));  // Subset of {0,2}.
  EXPECT_TRUE(contains({0, 1}));
  EXPECT_TRUE(contains({0, 2}));
  EXPECT_EQ(maximal.size(), 2u);
}

TEST(MaximalItemsetsTest, MaximalSubsetOfClosed) {
  // Every maximal itemset is closed (standard containment).
  std::vector<FrequentItemset> itemsets{
      {{0}, 5}, {{1}, 5}, {{0, 1}, 5}, {{2}, 4}, {{0, 2}, 2}};
  auto closed = ClosedItemsets(itemsets);
  auto maximal = MaximalItemsets(itemsets);
  for (const auto& m : maximal) {
    bool found = false;
    for (const auto& c : closed) found |= c.items == m.items;
    EXPECT_TRUE(found);
  }
  EXPECT_LE(maximal.size(), closed.size());
}

TEST(TransactionsTest, BuildTransactionsDeduplicates) {
  std::vector<dataset::Patient> patients{{0, 50, -1}, {1, 60, -1}};
  dataset::ExamDictionary dictionary;
  auto a = dictionary.Intern("a");
  auto b = dictionary.Intern("b");
  std::vector<dataset::ExamRecord> records{
      {0, b, 1}, {0, a, 2}, {0, a, 3}, {1, b, 4}};
  dataset::ExamLog log(std::move(patients), std::move(dictionary),
                       std::move(records));
  TransactionDb db = BuildTransactions(log);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.transactions[0], (std::vector<ItemId>{a, b}));  // Sorted.
  EXPECT_EQ(db.transactions[1], (std::vector<ItemId>{b}));
}

TEST(TransactionsTest, LevelAggregationUsesTaxonomyNodes) {
  auto taxonomy =
      dataset::Taxonomy::Build({0, 0, 1}, {"g0", "g1"}, {0, 0}, {"c"});
  ASSERT_TRUE(taxonomy.ok());
  std::vector<dataset::Patient> patients{{0, 50, -1}};
  dataset::ExamDictionary dictionary;
  auto e0 = dictionary.Intern("e0");
  auto e1 = dictionary.Intern("e1");
  auto e2 = dictionary.Intern("e2");
  std::vector<dataset::ExamRecord> records{{0, e0, 1}, {0, e1, 2},
                                           {0, e2, 3}};
  dataset::ExamLog log(std::move(patients), std::move(dictionary),
                       std::move(records));
  TransactionDb level0 = BuildTransactionsAtLevel(log, taxonomy.value(), 0);
  EXPECT_EQ(level0.transactions[0], (std::vector<ItemId>{0, 1, 2}));
  TransactionDb level1 = BuildTransactionsAtLevel(log, taxonomy.value(), 1);
  // e0, e1 -> group 0 (node 3); e2 -> group 1 (node 4).
  EXPECT_EQ(level1.transactions[0], (std::vector<ItemId>{3, 4}));
  TransactionDb level2 = BuildTransactionsAtLevel(log, taxonomy.value(), 2);
  // Everything -> the single category (node 5).
  EXPECT_EQ(level2.transactions[0], (std::vector<ItemId>{5}));
}

}  // namespace
}  // namespace patterns
}  // namespace adahealth
