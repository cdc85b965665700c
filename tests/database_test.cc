#include "kdb/database.h"

#include <filesystem>

#include <gtest/gtest.h>

namespace adahealth {
namespace kdb {
namespace {

using common::Json;

TEST(SchemaTest, SixCollections) {
  // Paper §IV-A: "The complete data model consists of six collections".
  EXPECT_EQ(Schema::CollectionNames().size(), 6u);
}

TEST(DatabaseTest, GetOrCreateIsStable) {
  Database db;
  Collection& a = db.GetOrCreate("alpha");
  a.Insert(Document());
  Collection& again = db.GetOrCreate("alpha");
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(again.size(), 1u);
}

TEST(DatabaseTest, GetMissingIsNotFound) {
  Database db;
  EXPECT_FALSE(db.Get("nope").ok());
  db.GetOrCreate("yes");
  EXPECT_TRUE(db.Get("yes").ok());
}

TEST(DatabaseTest, EnsureSchemaCreatesAllSixCollections) {
  Database db;
  db.EnsureAdaHealthSchema();
  for (const std::string& name : Schema::CollectionNames()) {
    EXPECT_TRUE(db.Get(name).ok()) << name;
  }
  EXPECT_EQ(db.CollectionNames().size(), 6u);
  // Idempotent.
  db.GetOrCreate(Schema::kFeedback).Insert(Document());
  db.EnsureAdaHealthSchema();
  EXPECT_EQ(db.GetOrCreate(Schema::kFeedback).size(), 1u);
}

TEST(DatabaseTest, SaveAndLoadRoundTrip) {
  Database db;
  db.EnsureAdaHealthSchema();
  Document feedback;
  feedback.Set("dataset_id", Json("d1"));
  feedback.Set("interest", Json("high"));
  db.GetOrCreate(Schema::kFeedback).Insert(std::move(feedback));
  Document descriptor;
  descriptor.Set("dataset_id", Json("d1"));
  db.GetOrCreate(Schema::kDescriptors).Insert(std::move(descriptor));

  // Its own directory: another test's K-DB files must not be loaded.
  const std::string directory = testing::TempDir() + "database_round_trip";
  std::filesystem::remove_all(directory);
  ASSERT_TRUE(std::filesystem::create_directories(directory));
  ASSERT_TRUE(db.SaveTo(directory).ok());

  Database reloaded;
  ASSERT_TRUE(
      reloaded.LoadFrom(directory, Schema::CollectionNames()).ok());
  EXPECT_EQ(reloaded.GetOrCreate(Schema::kFeedback).size(), 1u);
  EXPECT_EQ(reloaded.GetOrCreate(Schema::kDescriptors).size(), 1u);
  EXPECT_EQ(reloaded.GetOrCreate(Schema::kFeedback)
                .Find(Query().Eq("interest", Json("high")))
                .size(),
            1u);

  std::filesystem::remove_all(directory);
}

TEST(DatabaseTest, LoadFromMissingDirectoryFails) {
  Database db;
  EXPECT_FALSE(db.LoadFrom("/definitely/not/here", {"x"}).ok());
}

}  // namespace
}  // namespace kdb
}  // namespace adahealth
