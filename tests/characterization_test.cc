#include "core/characterization.h"

#include <gtest/gtest.h>
#include "dataset/synthetic_cohort.h"
#include "kdb/query.h"

namespace adahealth {
namespace core {
namespace {

TEST(CharacterizationTest, ReportContainsKeyFigures) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  CharacterizationReport report = Characterize(cohort->log);
  EXPECT_EQ(report.features.num_patients, 400);
  EXPECT_NE(report.text.find("400 patients"), std::string::npos);
  EXPECT_NE(report.text.find("48 exam types"), std::string::npos);
  EXPECT_NE(report.text.find("density"), std::string::npos);
}

TEST(CharacterizationTest, StoreWritesDescriptorDocument) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  CharacterizationReport report = Characterize(cohort->log);
  kdb::Database db;
  kdb::DocumentId id = StoreCharacterization(report, "cohort-1", db);
  EXPECT_GT(id, 0);
  kdb::Collection& descriptors = db.GetOrCreate(kdb::Schema::kDescriptors);
  std::vector<kdb::Document> stored = descriptors.Find(
      kdb::Query().Eq("dataset_id", common::Json("cohort-1")));
  ASSERT_EQ(stored.size(), 1u);
  const common::Json* features = stored.front().Get("features");
  ASSERT_NE(features, nullptr);
  auto restored = stats::MetaFeatures::FromJson(*features);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_patients, report.features.num_patients);
}

TEST(CharacterizationTest, MultipleDatasetsCoexist) {
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  CharacterizationReport report = Characterize(cohort->log);
  kdb::Database db;
  StoreCharacterization(report, "a", db);
  StoreCharacterization(report, "b", db);
  kdb::Collection& descriptors = db.GetOrCreate(kdb::Schema::kDescriptors);
  EXPECT_EQ(descriptors.size(), 2u);
  EXPECT_EQ(
      descriptors.Find(kdb::Query().Eq("dataset_id", common::Json("a")))
          .size(),
      1u);
}

}  // namespace
}  // namespace core
}  // namespace adahealth
