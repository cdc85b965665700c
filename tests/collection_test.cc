#include "kdb/collection.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace adahealth {
namespace kdb {
namespace {

using common::Json;

// The document with id `id`; NOT_FOUND when absent.
common::StatusOr<Document> FindById(const Collection& collection,
                                    DocumentId id) {
  for (const Document& document : collection.documents()) {
    if (document.id() == id) return document;
  }
  return common::NotFoundError("no document with _id " + std::to_string(id));
}

// The first match of `query`; NOT_FOUND when there is none.
common::StatusOr<Document> FindOne(const Collection& collection,
                                   const Query& query) {
  std::vector<Document> matches = collection.Find(query, 1);
  if (matches.empty()) return common::NotFoundError("no match");
  return matches.front();
}

// Removes document `id`, NOT_FOUND when absent, by rebuilding the
// collection from its other documents (ids kept) with the indexes on
// `indexed_paths`.
common::Status DeleteById(Collection& collection, DocumentId id,
                          const std::vector<std::string>& indexed_paths = {}) {
  common::StatusOr<Document> found = FindById(collection, id);
  if (!found.ok()) return found.status();
  Collection rebuilt(collection.name());
  for (const std::string& path : indexed_paths) rebuilt.CreateIndex(path);
  for (const Document& document : collection.documents()) {
    if (document.id() == id) continue;
    common::Status restored = rebuilt.Restore(document);
    if (!restored.ok()) return restored;
  }
  collection = std::move(rebuilt);
  return common::OkStatus();
}

Document Doc(const std::string& kind, int64_t value) {
  Document document;
  document.Set("kind", Json(kind));
  document.Set("value", Json(value));
  return document;
}

TEST(CollectionTest, InsertAssignsSequentialIds) {
  Collection collection("items");
  EXPECT_EQ(collection.Insert(Doc("a", 1)), 1);
  EXPECT_EQ(collection.Insert(Doc("b", 2)), 2);
  EXPECT_EQ(collection.size(), 2u);
  EXPECT_EQ(collection.documents().back().id(), 2);
}

TEST(CollectionTest, FindById) {
  Collection collection("items");
  DocumentId id = collection.Insert(Doc("a", 7));
  auto found = FindById(collection, id);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->Get("value")->AsInt(), 7);
  EXPECT_FALSE(FindById(collection, 999).ok());
}

TEST(CollectionTest, FindWithFilter) {
  Collection collection("items");
  collection.Insert(Doc("a", 1));
  collection.Insert(Doc("b", 2));
  collection.Insert(Doc("a", 3));
  auto matches = collection.Find(Query().Eq("kind", Json("a")));
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].Get("value")->AsInt(), 1);
  EXPECT_EQ(matches[1].Get("value")->AsInt(), 3);
}

TEST(CollectionTest, FindRespectsLimit) {
  Collection collection("items");
  for (int64_t i = 0; i < 10; ++i) collection.Insert(Doc("x", i));
  EXPECT_EQ(collection.Find(Query(), 3).size(), 3u);
  EXPECT_EQ(collection.Find(Query()).size(), 10u);
}

TEST(CollectionTest, FindOneAndCount) {
  Collection collection("items");
  collection.Insert(Doc("a", 1));
  collection.Insert(Doc("a", 2));
  auto first = FindOne(collection, Query().Eq("kind", Json("a")));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Get("value")->AsInt(), 1);
  EXPECT_EQ(collection.Find(Query().Eq("kind", Json("a"))).size(), 2u);
  EXPECT_FALSE(FindOne(collection, Query().Eq("kind", Json("z"))).ok());
}

TEST(CollectionTest, UpdateByIdMergesFields) {
  Collection collection("items");
  DocumentId id = collection.Insert(Doc("a", 1));
  Json::Object update;
  update["value"] = Json(int64_t{10});
  update["extra"] = Json("new");
  update["_id"] = Json(int64_t{999});  // Must be ignored.
  ASSERT_TRUE(collection.UpdateById(id, Json(std::move(update))).ok());
  auto found = FindById(collection, id);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->Get("value")->AsInt(), 10);
  EXPECT_EQ(found->Get("extra")->AsString(), "new");
  EXPECT_EQ(found->Get("kind")->AsString(), "a");  // Untouched.
  EXPECT_EQ(found->id(), id);                      // Id immutable.
}

TEST(CollectionTest, UpdateErrors) {
  Collection collection("items");
  DocumentId id = collection.Insert(Doc("a", 1));
  EXPECT_FALSE(collection.UpdateById(999, Json(Json::Object{})).ok());
  EXPECT_FALSE(collection.UpdateById(id, Json(int64_t{1})).ok());
}

TEST(CollectionTest, DeleteById) {
  Collection collection("items");
  DocumentId first = collection.Insert(Doc("a", 1));
  DocumentId second = collection.Insert(Doc("b", 2));
  ASSERT_TRUE(DeleteById(collection, first).ok());
  EXPECT_EQ(collection.size(), 1u);
  EXPECT_FALSE(FindById(collection, first).ok());
  EXPECT_TRUE(FindById(collection, second).ok());
  EXPECT_FALSE(DeleteById(collection, first).ok());
  // Ids are not reused after deletion.
  EXPECT_GT(collection.Insert(Doc("c", 3)), second);
}

TEST(CollectionTest, IndexAcceleratedEqualityFind) {
  Collection collection("items");
  collection.CreateIndex("kind");
  for (int64_t i = 0; i < 100; ++i) {
    collection.Insert(Doc(i % 2 == 0 ? "even" : "odd", i));
  }
  auto evens = collection.Find(Query().Eq("kind", Json("even")));
  EXPECT_EQ(evens.size(), 50u);
  // Index + extra condition.
  auto filtered = collection.Find(Query()
                                      .Eq("kind", Json("even"))
                                      .Where("value", QueryOp::kLt,
                                             Json(int64_t{10})));
  EXPECT_EQ(filtered.size(), 5u);
}

TEST(CollectionTest, IndexCreatedAfterInsertsStillWorks) {
  Collection collection("items");
  for (int64_t i = 0; i < 20; ++i) collection.Insert(Doc("k", i));
  collection.CreateIndex("value");
  auto matches = collection.Find(Query().Eq("value", Json(int64_t{7})));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].Get("value")->AsInt(), 7);
}

TEST(CollectionTest, IndexSurvivesUpdatesAndDeletes) {
  Collection collection("items");
  collection.CreateIndex("kind");
  DocumentId id = collection.Insert(Doc("a", 1));
  collection.Insert(Doc("a", 2));
  Json::Object update;
  update["kind"] = Json("b");
  ASSERT_TRUE(collection.UpdateById(id, Json(std::move(update))).ok());
  EXPECT_EQ(collection.Find(Query().Eq("kind", Json("a"))).size(), 1u);
  EXPECT_EQ(collection.Find(Query().Eq("kind", Json("b"))).size(), 1u);
  ASSERT_TRUE(DeleteById(collection, id, {"kind"}).ok());
  EXPECT_EQ(collection.Find(Query().Eq("kind", Json("b"))).size(), 0u);
}

TEST(CollectionTest, IndexMissBypassesScan) {
  Collection collection("items");
  collection.CreateIndex("kind");
  collection.Insert(Doc("a", 1));
  EXPECT_TRUE(collection.Find(Query().Eq("kind", Json("zzz"))).empty());
}

TEST(CollectionTest, RestorePreservesIdsAndAdvancesCounter) {
  Collection collection("items");
  auto document = Document::Parse(R"({"_id": 10, "kind": "restored"})");
  ASSERT_TRUE(document.ok());
  ASSERT_TRUE(collection.Restore(document.value()).ok());
  EXPECT_TRUE(FindById(collection, 10).ok());
  EXPECT_EQ(collection.Insert(Doc("next", 1)), 11);
}

TEST(CollectionTest, RestoreRejectsDuplicatesAndBadIds) {
  Collection collection("items");
  auto document = Document::Parse(R"({"_id": 3})");
  ASSERT_TRUE(document.ok());
  ASSERT_TRUE(collection.Restore(document.value()).ok());
  EXPECT_FALSE(collection.Restore(document.value()).ok());
  auto no_id = Document::Parse(R"({"x": 1})");
  ASSERT_TRUE(no_id.ok());
  EXPECT_FALSE(collection.Restore(no_id.value()).ok());
}

}  // namespace
}  // namespace kdb
}  // namespace adahealth
