#include "dataset/synthetic_cohort.h"

#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>
#include "stats/descriptors.h"

namespace adahealth {
namespace dataset {
namespace {

TEST(SyntheticCohortTest, TestScaleShape) {
  auto cohort = SyntheticCohortGenerator(TestScaleConfig()).Generate();
  ASSERT_TRUE(cohort.ok());
  const ExamLog& log = cohort->log;
  EXPECT_EQ(log.num_patients(), 400u);
  EXPECT_EQ(log.num_exam_types(), 48u);
  // Expected records: 400 * 12 = 4800 +- sampling noise.
  EXPECT_GT(log.num_records(), 4300u);
  EXPECT_LT(log.num_records(), 5300u);
}

TEST(SyntheticCohortTest, DeterministicForSameSeed) {
  auto a = SyntheticCohortGenerator(TestScaleConfig()).Generate();
  auto b = SyntheticCohortGenerator(TestScaleConfig()).Generate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->log.records(), b->log.records());
  EXPECT_EQ(a->log.patients(), b->log.patients());
}

TEST(SyntheticCohortTest, SeedChangesOutput) {
  CohortConfig config = TestScaleConfig();
  config.seed = 777;
  auto a = SyntheticCohortGenerator(TestScaleConfig()).Generate();
  auto b = SyntheticCohortGenerator(config).Generate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->log.records(), b->log.records());
}

TEST(SyntheticCohortTest, AgesWithinPaperRange) {
  auto cohort = SyntheticCohortGenerator(TestScaleConfig()).Generate();
  ASSERT_TRUE(cohort.ok());
  for (const Patient& patient : cohort->log.patients()) {
    EXPECT_GE(patient.age, 4);
    EXPECT_LE(patient.age, 95);
  }
}

TEST(SyntheticCohortTest, EveryProfileRepresented) {
  auto cohort = SyntheticCohortGenerator(TestScaleConfig()).Generate();
  ASSERT_TRUE(cohort.ok());
  std::set<int32_t> profiles;
  for (const Patient& patient : cohort->log.patients()) {
    ASSERT_GE(patient.profile, 0);
    ASSERT_LT(patient.profile, 4);
    profiles.insert(patient.profile);
  }
  EXPECT_EQ(profiles.size(), 4u);
  EXPECT_EQ(cohort->profile_names.size(), 4u);
}

TEST(SyntheticCohortTest, EveryPatientHasAtLeastOneRecord) {
  auto cohort = SyntheticCohortGenerator(TestScaleConfig()).Generate();
  ASSERT_TRUE(cohort.ok());
  for (int64_t count : cohort->log.RecordsPerPatient()) {
    EXPECT_GE(count, 1);
  }
}

TEST(SyntheticCohortTest, DaysWithinConfiguredPeriod) {
  CohortConfig config = TestScaleConfig();
  config.num_days = 90;
  auto cohort = SyntheticCohortGenerator(config).Generate();
  ASSERT_TRUE(cohort.ok());
  for (const ExamRecord& record : cohort->log.records()) {
    EXPECT_GE(record.day, 0);
    EXPECT_LT(record.day, 90);
  }
}

TEST(SyntheticCohortTest, TaxonomyMatchesDictionary) {
  auto cohort = SyntheticCohortGenerator(TestScaleConfig()).Generate();
  ASSERT_TRUE(cohort.ok());
  EXPECT_EQ(cohort->taxonomy.num_leaves(), cohort->log.num_exam_types());
  // Each exam name is prefixed by its group name.
  for (size_t e = 0; e < cohort->log.num_exam_types(); ++e) {
    int32_t group = cohort->taxonomy.GroupOfLeaf(static_cast<int32_t>(e));
    const std::string& exam_name =
        cohort->log.dictionary().Name(static_cast<int32_t>(e));
    EXPECT_EQ(exam_name.rfind(cohort->taxonomy.GroupName(group), 0), 0u)
        << exam_name;
  }
}

TEST(SyntheticCohortTest, PaperScaleCoverageCurve) {
  // The headline property of the substitution: with the paper-scale
  // config, the top 20% of exam types cover ~70% of the records and
  // the top 40% cover ~85% (paper §IV-B).
  auto cohort = SyntheticCohortGenerator(PaperScaleConfig()).Generate();
  ASSERT_TRUE(cohort.ok());
  const ExamLog& log = cohort->log;
  EXPECT_EQ(log.num_patients(), 6380u);
  EXPECT_EQ(log.num_exam_types(), 159u);
  // ~95,788 records within 2%.
  EXPECT_NEAR(static_cast<double>(log.num_records()), 95788.0,
              0.02 * 95788.0);
  std::vector<int64_t> frequencies = log.ExamFrequencies();
  double top20 = stats::TopFractionCoverage(frequencies, 0.20);
  double top40 = stats::TopFractionCoverage(frequencies, 0.40);
  EXPECT_NEAR(top20, 0.70, 0.06);
  EXPECT_NEAR(top40, 0.85, 0.05);
}

TEST(SyntheticCohortTest, ProfilesShapeExamChoices) {
  // Patients of a profile should use its signature groups more often
  // than the cohort average (the recoverable cluster structure). The
  // boost is gated to specialized exams, so the vocabulary must be
  // large enough for groups to have specialized members.
  CohortConfig config = TestScaleConfig();
  config.num_exam_types = 159;
  auto cohort = SyntheticCohortGenerator(config).Generate();
  ASSERT_TRUE(cohort.ok());
  const ExamLog& log = cohort->log;
  const Taxonomy& taxonomy = cohort->taxonomy;
  // Profile 1 in the built-in spec is "cardiovascular" with signature
  // group 5 ("cardiology").
  int64_t cardio_profile_hits = 0;
  int64_t cardio_profile_total = 0;
  int64_t other_hits = 0;
  int64_t other_total = 0;
  for (const ExamRecord& record : log.records()) {
    bool cardio_exam =
        taxonomy.GroupName(taxonomy.GroupOfLeaf(record.exam_type)) ==
        "cardiology";
    if (log.patients()[static_cast<size_t>(record.patient)].profile == 1) {
      cardio_profile_hits += cardio_exam ? 1 : 0;
      ++cardio_profile_total;
    } else {
      other_hits += cardio_exam ? 1 : 0;
      ++other_total;
    }
  }
  ASSERT_GT(cardio_profile_total, 0);
  ASSERT_GT(other_total, 0);
  double profile_rate = static_cast<double>(cardio_profile_hits) /
                        static_cast<double>(cardio_profile_total);
  double other_rate =
      static_cast<double>(other_hits) / static_cast<double>(other_total);
  EXPECT_GT(profile_rate, 2.0 * other_rate);
}

TEST(SyntheticCohortTest, SizeOverTheRecordCapIsRejectedBeforeAllocating) {
  // 400 x 1e9 expected records would reserve terabytes.
  CohortConfig config = TestScaleConfig();
  config.num_patients = 400;
  config.mean_records_per_patient = 1e9;
  auto generated = SyntheticCohortGenerator(config).Generate();
  ASSERT_EQ(generated.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(generated.status().message().find("'mean_records_per_patient'"),
            std::string::npos)
      << generated.status().ToString();
  config.mean_records_per_patient = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(SyntheticCohortGenerator(config).Generate().ok());
  config.mean_records_per_patient = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(SyntheticCohortGenerator(config).Generate().ok());

  // The cap itself: the records a 4 MiB line carries as CSV. The product
  // is taken in double, so int32 patients cannot overflow it.
  EXPECT_EQ(kMaxCohortRecords, (int64_t{4} << 20) / 5);
  EXPECT_TRUE(CheckSyntheticSize(1, static_cast<double>(kMaxCohortRecords),
                                 "mean_records")
                  .ok());
  EXPECT_FALSE(CheckSyntheticSize(1, kMaxCohortRecords + 0.5, "mean_records")
                   .ok());
  EXPECT_FALSE(CheckSyntheticSize(std::numeric_limits<int32_t>::max(),
                                  std::numeric_limits<int32_t>::max(),
                                  "mean_records")
                   .ok());
}

TEST(SyntheticCohortTest, InvalidConfigsRejected) {
  CohortConfig config = TestScaleConfig();
  config.num_patients = 0;
  EXPECT_FALSE(SyntheticCohortGenerator(config).Generate().ok());

  config = TestScaleConfig();
  config.num_exam_types = 2;
  EXPECT_FALSE(SyntheticCohortGenerator(config).Generate().ok());

  config = TestScaleConfig();
  config.num_profiles = 9;
  EXPECT_FALSE(SyntheticCohortGenerator(config).Generate().ok());

  config = TestScaleConfig();
  config.mean_records_per_patient = 0.0;
  EXPECT_FALSE(SyntheticCohortGenerator(config).Generate().ok());

  config = TestScaleConfig();
  config.profile_boost = 0.5;
  EXPECT_FALSE(SyntheticCohortGenerator(config).Generate().ok());

  config = TestScaleConfig();
  config.num_days = 0;
  EXPECT_FALSE(SyntheticCohortGenerator(config).Generate().ok());

  config = TestScaleConfig();
  config.zipf_exponent = -0.1;
  EXPECT_FALSE(SyntheticCohortGenerator(config).Generate().ok());
}

}  // namespace
}  // namespace dataset
}  // namespace adahealth
