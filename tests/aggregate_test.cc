#include "kdb/aggregate.h"

#include <algorithm>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace adahealth {
namespace kdb {
namespace {

using common::Json;

Collection MakeCollection() {
  Collection collection("items");
  struct Row {
    const char* kind;
    double quality;
  };
  const Row rows[] = {{"cluster", 0.9}, {"cluster", 0.5}, {"rule", 0.7},
                      {"rule", 0.3},    {"itemset", 0.6}};
  for (const Row& row : rows) {
    Document document;
    document.Set("kind", Json(row.kind));
    document.Set("quality", Json(row.quality));
    collection.Insert(std::move(document));
  }
  // One document without the fields.
  collection.Insert(Document());
  return collection;
}

TEST(GroupCountTest, CountsPerValue) {
  Collection collection = MakeCollection();
  auto counts = GroupCount(collection, "kind");
  EXPECT_EQ(counts["\"cluster\""], 2);
  EXPECT_EQ(counts["\"rule\""], 2);
  EXPECT_EQ(counts["\"itemset\""], 1);
  EXPECT_EQ(counts["<missing>"], 1);
}

TEST(GroupCountTest, RespectsFilter) {
  Collection collection = MakeCollection();
  auto counts = GroupCount(collection, "kind",
                           Query().Where("quality", QueryOp::kGe,
                                         Json(0.6)));
  EXPECT_EQ(counts["\"cluster\""], 1);
  EXPECT_EQ(counts["\"rule\""], 1);
  EXPECT_EQ(counts["\"itemset\""], 1);
  EXPECT_EQ(counts.count("<missing>"), 0u);
}

TEST(AggregateTest, NumericStatistics) {
  Collection collection = MakeCollection();
  FieldStats stats = Aggregate(collection, "quality");
  EXPECT_EQ(stats.count, 5);
  EXPECT_NEAR(stats.sum, 3.0, 1e-12);
  EXPECT_NEAR(stats.mean, 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min, 0.3);
  EXPECT_DOUBLE_EQ(stats.max, 0.9);
}

TEST(AggregateTest, FilteredStatistics) {
  Collection collection = MakeCollection();
  FieldStats stats = Aggregate(collection, "quality",
                               Query().Eq("kind", Json("rule")));
  EXPECT_EQ(stats.count, 2);
  EXPECT_NEAR(stats.mean, 0.5, 1e-12);
}

TEST(AggregateTest, EmptyMatchGivesZeroStats) {
  Collection collection = MakeCollection();
  FieldStats stats = Aggregate(collection, "quality",
                               Query().Eq("kind", Json("ghost")));
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
}

// Sort key: rank (0 number, 1 string, 2 other/missing) then value.
struct SortKey {
  int rank = 2;
  double number = 0.0;
  std::string text;

  static SortKey From(const Document& document, const std::string& path) {
    SortKey key;
    const Json* field = document.Get(path);
    if (field == nullptr) return key;
    if (field->is_number()) {
      key.rank = 0;
      key.number = field->AsDouble();
    } else if (field->is_string()) {
      key.rank = 1;
      key.text = field->AsString();
    }
    return key;
  }

  friend bool operator<(const SortKey& a, const SortKey& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    if (a.rank == 0) return a.number < b.number;
    if (a.rank == 1) return a.text < b.text;
    return false;
  }
};

// Matching documents ordered by the value at `sort_path` (numbers before
// strings, missing fields last; `descending` flips the order), truncated
// to `limit` (0 = unlimited). Stable with respect to insertion order.
std::vector<Document> SortedFind(const Collection& collection,
                                 const Query& filter,
                                 const std::string& sort_path,
                                 bool descending = false,
                                 size_t limit = 0) {
  std::vector<std::pair<SortKey, const Document*>> keyed;
  for (const Document& document : collection.documents()) {
    if (!filter.Matches(document)) continue;
    keyed.emplace_back(SortKey::From(document, sort_path), &document);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&](const auto& a, const auto& b) {
                     // Missing/other fields sort last in either order.
                     if (a.first.rank == 2 || b.first.rank == 2) {
                       return a.first.rank < b.first.rank;
                     }
                     return descending ? b.first < a.first
                                       : a.first < b.first;
                   });
  std::vector<Document> out;
  size_t take = limit == 0 ? keyed.size() : std::min(limit, keyed.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) out.push_back(*keyed[i].second);
  return out;
}

TEST(SortedFindTest, AscendingAndDescending) {
  Collection collection = MakeCollection();
  auto ascending = SortedFind(collection, Query(), "quality");
  // 5 documents with quality (missing-field document last).
  ASSERT_EQ(ascending.size(), 6u);
  EXPECT_DOUBLE_EQ(ascending[0].Get("quality")->AsDouble(), 0.3);
  EXPECT_DOUBLE_EQ(ascending[4].Get("quality")->AsDouble(), 0.9);
  EXPECT_EQ(ascending[5].Get("quality"), nullptr);

  auto descending =
      SortedFind(collection, Query(), "quality", true);
  EXPECT_DOUBLE_EQ(descending[0].Get("quality")->AsDouble(), 0.9);
  EXPECT_EQ(descending[5].Get("quality"), nullptr);  // Missing last.
}

TEST(SortedFindTest, LimitTruncates) {
  Collection collection = MakeCollection();
  auto top2 = SortedFind(collection, Query(), "quality", true, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_DOUBLE_EQ(top2[0].Get("quality")->AsDouble(), 0.9);
  EXPECT_DOUBLE_EQ(top2[1].Get("quality")->AsDouble(), 0.7);
}

TEST(SortedFindTest, StringSortIsLexicographic) {
  Collection collection = MakeCollection();
  auto by_kind = SortedFind(collection, Query(), "kind");
  ASSERT_GE(by_kind.size(), 5u);
  EXPECT_EQ(by_kind[0].Get("kind")->AsString(), "cluster");
  EXPECT_EQ(by_kind[4].Get("kind")->AsString(), "rule");
}

TEST(SortedFindTest, FilterApplies) {
  Collection collection = MakeCollection();
  auto rules = SortedFind(collection, Query().Eq("kind", Json("rule")),
                          "quality", true);
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_DOUBLE_EQ(rules[0].Get("quality")->AsDouble(), 0.7);
}

}  // namespace
}  // namespace kdb
}  // namespace adahealth
