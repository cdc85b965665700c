// Tests for the SSE-elbow analysis and exam correlation discovery.
#include <gtest/gtest.h>
#include "cluster/elbow.h"
#include "common/rng.h"
#include "dataset/synthetic_cohort.h"
#include "stats/correlations.h"

namespace adahealth {
namespace {

TEST(ElbowTest, FindsObviousKnee) {
  // Steep drop until K=4, flat afterwards.
  std::vector<cluster::SsePoint> sweep{
      {2, 1000.0}, {3, 500.0}, {4, 200.0}, {5, 190.0},
      {6, 182.0},  {7, 176.0}, {8, 171.0}};
  auto analysis = cluster::AnalyzeElbow(sweep);
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->knee_k, 4);
  EXPECT_LE(analysis->admissible_from_k, 5);
  EXPECT_EQ(analysis->knee_scores.size(), sweep.size());
}

TEST(ElbowTest, LinearSseHasNoPronouncedKnee) {
  std::vector<cluster::SsePoint> sweep{
      {2, 100.0}, {4, 80.0}, {6, 60.0}, {8, 40.0}, {10, 20.0}};
  auto analysis = cluster::AnalyzeElbow(sweep);
  ASSERT_TRUE(analysis.ok());
  // All chord distances ~0.
  for (double score : analysis->knee_scores) {
    EXPECT_NEAR(score, 0.0, 1e-9);
  }
  // Never flattens below 25% of the initial rate.
  EXPECT_EQ(analysis->admissible_from_k, 10);
}

TEST(ElbowTest, FlatFromStart) {
  std::vector<cluster::SsePoint> sweep{{2, 10.0}, {3, 10.0}, {4, 10.0}};
  auto analysis = cluster::AnalyzeElbow(sweep);
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->admissible_from_k, 2);
}

TEST(ElbowTest, RejectsBadInput) {
  std::vector<cluster::SsePoint> too_small{{2, 10.0}, {3, 5.0}};
  EXPECT_FALSE(cluster::AnalyzeElbow(too_small).ok());
  std::vector<cluster::SsePoint> unsorted{{2, 10.0}, {2, 5.0}, {4, 1.0}};
  EXPECT_FALSE(cluster::AnalyzeElbow(unsorted).ok());
  std::vector<cluster::SsePoint> negative{{2, 10.0}, {3, -1.0}, {4, 0.0}};
  EXPECT_FALSE(cluster::AnalyzeElbow(negative).ok());
  std::vector<cluster::SsePoint> fine{{2, 10.0}, {3, 5.0}, {4, 2.0}};
  EXPECT_FALSE(cluster::AnalyzeElbow(fine, 0.0).ok());
  EXPECT_FALSE(cluster::AnalyzeElbow(fine, 1.5).ok());
}

TEST(ExamCorrelationsTest, DetectsPlantedCorrelation) {
  // Patients either get both exams 0 and 1 heavily or neither; exam 2
  // is independent noise.
  std::vector<dataset::Patient> patients;
  dataset::ExamDictionary dictionary;
  auto a = dictionary.Intern("paired_a");
  auto b = dictionary.Intern("paired_b");
  auto c = dictionary.Intern("independent");
  std::vector<dataset::ExamRecord> records;
  common::Rng rng(77);
  for (int32_t p = 0; p < 200; ++p) {
    patients.push_back({p, 50, -1});
    bool heavy = p % 2 == 0;
    int copies = heavy ? 4 : 1;
    for (int r = 0; r < copies; ++r) {
      records.push_back({p, a, r});
      records.push_back({p, b, r});
    }
    int64_t noise = rng.UniformInt(1, 4);
    for (int64_t r = 0; r < noise; ++r) {
      records.push_back({p, c, static_cast<int32_t>(r)});
    }
  }
  dataset::ExamLog log(std::move(patients), std::move(dictionary),
                       std::move(records));
  auto correlations = stats::TopExamCorrelations(log, 3, 10);
  ASSERT_TRUE(correlations.ok());
  ASSERT_FALSE(correlations->empty());
  EXPECT_EQ(correlations->front().exam_a, a);
  EXPECT_EQ(correlations->front().exam_b, b);
  EXPECT_GT(correlations->front().correlation, 0.95);
}

TEST(ExamCorrelationsTest, MinPatientsFloorExcludesRareExams) {
  std::vector<dataset::Patient> patients;
  dataset::ExamDictionary dictionary;
  auto a = dictionary.Intern("common_a");
  auto b = dictionary.Intern("common_b");
  auto rare = dictionary.Intern("rare");
  std::vector<dataset::ExamRecord> records;
  for (int32_t p = 0; p < 50; ++p) {
    patients.push_back({p, 50, -1});
    records.push_back({p, a, 0});
    if (p % 2 == 0) records.push_back({p, b, 1});
  }
  records.push_back({0, rare, 2});
  dataset::ExamLog log(std::move(patients), std::move(dictionary),
                       std::move(records));
  auto correlations = stats::TopExamCorrelations(log, 10, 20);
  ASSERT_TRUE(correlations.ok());
  for (const auto& pair : correlations.value()) {
    EXPECT_NE(pair.exam_a, rare);
    EXPECT_NE(pair.exam_b, rare);
  }
}

TEST(ExamCorrelationsTest, SyntheticCohortHasCorrelatedSignatureExams) {
  // The paper's explanation for partial mining working: correlated
  // exams exist. In the generator, exams of the same signature group
  // are driven by the same profile membership and must correlate.
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::PaperScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  auto correlations =
      stats::TopExamCorrelations(cohort->log, 10, 100);
  ASSERT_TRUE(correlations.ok());
  ASSERT_FALSE(correlations->empty());
  // Per-patient exam counts are small (Poisson-like), so even strongly
  // co-driven exams correlate modestly; what matters is that the top
  // pair is clearly above independence noise.
  EXPECT_GT(correlations->front().correlation, 0.12);
  // The strongest pair shares a taxonomy group.
  const auto& top = correlations->front();
  EXPECT_EQ(cohort->taxonomy.GroupOfLeaf(top.exam_a),
            cohort->taxonomy.GroupOfLeaf(top.exam_b));
}

TEST(ExamCorrelationsTest, RejectsBadInput) {
  dataset::ExamDictionary dictionary;
  dictionary.Intern("x");
  dataset::ExamLog tiny({{0, 50, -1}}, std::move(dictionary), {});
  EXPECT_FALSE(stats::TopExamCorrelations(tiny, 5).ok());
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  EXPECT_FALSE(stats::TopExamCorrelations(cohort->log, 0).ok());
}

}  // namespace
}  // namespace adahealth
