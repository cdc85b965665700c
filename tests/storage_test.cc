#include "kdb/storage.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace adahealth {
namespace kdb {
namespace {

using common::Json;

// A fresh directory of its own under the test temp root: ctest runs test
// processes in parallel, and two tests saving "test_items" into one
// shared directory see each other's files.
std::string OwnDirectory(const std::string& name) {
  const std::string directory = testing::TempDir() + "storage_" + name;
  std::filesystem::remove_all(directory);
  std::filesystem::create_directories(directory);
  return directory;
}

Collection MakeCollection() {
  Collection collection("test_items");
  for (int64_t i = 0; i < 5; ++i) {
    Document document;
    document.Set("value", Json(i));
    document.Set("name", Json("item-" + std::to_string(i)));
    collection.Insert(std::move(document));
  }
  return collection;
}

TEST(StorageTest, SerializeOneLinePerDocument) {
  std::string text = SerializeCollection(MakeCollection());
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
}

TEST(StorageTest, SerializeDeserializeRoundTrip) {
  Collection original = MakeCollection();
  auto restored =
      DeserializeCollection("test_items", SerializeCollection(original));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), original.size());
  EXPECT_EQ(restored->documents(), original.documents());
}

TEST(StorageTest, InsertAfterReloadContinuesIds) {
  Collection original = MakeCollection();
  auto restored =
      DeserializeCollection("test_items", SerializeCollection(original));
  ASSERT_TRUE(restored.ok());
  Document fresh;
  fresh.Set("value", Json(int64_t{99}));
  EXPECT_EQ(restored->Insert(std::move(fresh)),
            original.documents().back().id() + 1);
}

TEST(StorageTest, BlankLinesTolerated) {
  auto restored = DeserializeCollection(
      "x", "\n{\"_id\":1,\"a\":1}\n\n{\"_id\":2,\"a\":2}\n\n");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 2u);
}

TEST(StorageTest, MalformedLineIsDataLoss) {
  auto restored = DeserializeCollection(
      "x", "{\"_id\":1}\n{\"_id\":2,  TRUNCATED");
  EXPECT_EQ(restored.status().code(), common::StatusCode::kDataLoss);
}

TEST(StorageTest, MissingIdRejected) {
  auto restored = DeserializeCollection("x", "{\"a\":1}\n");
  EXPECT_FALSE(restored.ok());
}

TEST(StorageTest, FileRoundTrip) {
  Collection original = MakeCollection();
  std::string directory = OwnDirectory("file_round_trip");
  ASSERT_TRUE(SaveCollection(original, directory).ok());
  auto loaded = LoadCollection("test_items", directory);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), original.size());
  std::filesystem::remove_all(directory);
}

TEST(StorageTest, LoadMissingFileIsNotFound) {
  auto loaded = LoadCollection("does_not_exist", testing::TempDir());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kNotFound);
}

TEST(StorageTest, ErrorsCarryLineNumberAndPayloadPreview) {
  auto restored = DeserializeCollection(
      "x", "{\"_id\":1,\"a\":1}\n{\"_id\":2,  TRUNCATED-PAYLOAD");
  ASSERT_FALSE(restored.ok());
  const std::string& message = restored.status().message();
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("TRUNCATED-PAYLOAD"), std::string::npos) << message;
  EXPECT_NE(message.find("'x'"), std::string::npos) << message;
}

TEST(StorageTest, PayloadPreviewIsTruncated) {
  std::string long_line = "{\"_id\":1,\"a\":\"" + std::string(200, 'z');
  auto restored = DeserializeCollection("x", long_line);
  ASSERT_FALSE(restored.ok());
  // The preview must not echo the entire 200+ character payload.
  EXPECT_LT(restored.status().message().size(), 160u);
  EXPECT_NE(restored.status().message().find("..."), std::string::npos);
}

TEST(StorageTest, LoadCollectionRejectsTornFile) {
  std::string directory = testing::TempDir();
  std::string path = directory + "/torn.jsonl";
  FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("{\"_id\":1,\"a\":1}\n{\"_id\":2,\"a\":2}\n{\"_id\":3,\"a", file);
  std::fclose(file);
  auto strict = LoadCollection("torn", directory);
  EXPECT_EQ(strict.status().code(), common::StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(StorageTest, SuccessfulSaveLeavesNoTmpResidue) {
  Collection original = MakeCollection();
  std::string directory = OwnDirectory("no_tmp_residue");
  ASSERT_TRUE(SaveCollection(original, directory).ok());
  FILE* tmp = std::fopen((directory + "/test_items.jsonl.tmp").c_str(), "r");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::filesystem::remove_all(directory);
}

}  // namespace
}  // namespace kdb
}  // namespace adahealth
