#include "transform/sampling.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>
#include "dataset/synthetic_cohort.h"

namespace adahealth {
namespace transform {
namespace {

dataset::ExamLog MakeLog(int32_t num_patients) {
  std::vector<dataset::Patient> patients;
  dataset::ExamDictionary dictionary;
  auto a = dictionary.Intern("a");
  std::vector<dataset::ExamRecord> records;
  for (int32_t i = 0; i < num_patients; ++i) {
    patients.push_back({i, 50, -1});
    // Patient i has i+1 records (activity gradient for stratification).
    for (int32_t r = 0; r <= i; ++r) records.push_back({i, a, r});
  }
  return dataset::ExamLog(std::move(patients), std::move(dictionary),
                          std::move(records));
}

TEST(SamplePatientsTest, SizeAndRange) {
  dataset::ExamLog log = MakeLog(100);
  common::Rng rng(5);
  auto sample = SamplePatients(log, 0.3, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 30u);
  EXPECT_TRUE(std::is_sorted(sample->begin(), sample->end()));
  std::set<dataset::PatientId> distinct(sample->begin(), sample->end());
  EXPECT_EQ(distinct.size(), 30u);
}

TEST(SamplePatientsTest, FullFraction) {
  dataset::ExamLog log = MakeLog(10);
  common::Rng rng(5);
  auto sample = SamplePatients(log, 1.0, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 10u);
}

TEST(SamplePatientsTest, TinyFractionReturnsAtLeastOne) {
  dataset::ExamLog log = MakeLog(10);
  common::Rng rng(5);
  auto sample = SamplePatients(log, 0.01, rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 1u);
}

TEST(SamplePatientsTest, RejectsBadFractions) {
  dataset::ExamLog log = MakeLog(10);
  common::Rng rng(5);
  EXPECT_FALSE(SamplePatients(log, 0.0, rng).ok());
  EXPECT_FALSE(SamplePatients(log, 1.1, rng).ok());
}

// Samples `fraction` of the patients stratified by record-count quartile,
// so that high- and low-activity patients stay represented: each
// quartile contributes round(fraction * its size) patients, at least
// one. Result sorted ascending.
std::vector<dataset::PatientId> SamplePatientsStratifiedByActivity(
    const dataset::ExamLog& log, double fraction, common::Rng& rng) {
  std::vector<int64_t> counts = log.RecordsPerPatient();
  std::vector<dataset::PatientId> by_count(log.num_patients());
  for (size_t i = 0; i < by_count.size(); ++i) {
    by_count[i] = static_cast<dataset::PatientId>(i);
  }
  std::stable_sort(by_count.begin(), by_count.end(),
                   [&](dataset::PatientId a, dataset::PatientId b) {
                     return counts[static_cast<size_t>(a)] <
                            counts[static_cast<size_t>(b)];
                   });
  std::vector<dataset::PatientId> sampled;
  const size_t num_strata = 4;
  for (size_t s = 0; s < num_strata; ++s) {
    size_t begin = s * by_count.size() / num_strata;
    size_t end = (s + 1) * by_count.size() / num_strata;
    if (begin >= end) continue;
    const size_t size = end - begin;
    const auto rounded = static_cast<size_t>(
        std::llround(fraction * static_cast<double>(size)));
    std::vector<size_t> picks = rng.SampleWithoutReplacement(
        size, std::clamp<size_t>(rounded, 1, size));
    for (size_t p : picks) sampled.push_back(by_count[begin + p]);
  }
  std::sort(sampled.begin(), sampled.end());
  return sampled;
}

TEST(StratifiedSamplingTest, RepresentsAllActivityQuartiles) {
  dataset::ExamLog log = MakeLog(100);
  common::Rng rng(7);
  std::vector<dataset::PatientId> sample =
      SamplePatientsStratifiedByActivity(log, 0.2, rng);
  // 5 from each quartile.
  EXPECT_EQ(sample.size(), 20u);
  int quartile_hits[4] = {0, 0, 0, 0};
  for (dataset::PatientId id : sample) {
    ++quartile_hits[std::min<int>(3, id / 25)];
  }
  for (int hits : quartile_hits) EXPECT_EQ(hits, 5);
}

TEST(BuildHorizontalScheduleTest, SubsetsAreNested) {
  dataset::ExamLog log = MakeLog(50);
  common::Rng rng(9);
  auto schedule = BuildHorizontalSchedule(log, {0.2, 0.5, 1.0}, rng);
  ASSERT_TRUE(schedule.ok());
  ASSERT_EQ(schedule->size(), 3u);
  EXPECT_EQ((*schedule)[0].size(), 10u);
  EXPECT_EQ((*schedule)[1].size(), 25u);
  EXPECT_EQ((*schedule)[2].size(), 50u);
  // Nesting: every patient of step i appears in step i+1.
  for (size_t s = 0; s + 1 < schedule->size(); ++s) {
    std::set<dataset::PatientId> next((*schedule)[s + 1].begin(),
                                      (*schedule)[s + 1].end());
    for (dataset::PatientId id : (*schedule)[s]) {
      EXPECT_TRUE(next.contains(id));
    }
  }
}

TEST(BuildHorizontalScheduleTest, RejectsNonIncreasingFractions) {
  dataset::ExamLog log = MakeLog(10);
  common::Rng rng(9);
  EXPECT_FALSE(BuildHorizontalSchedule(log, {0.5, 0.5}, rng).ok());
  EXPECT_FALSE(BuildHorizontalSchedule(log, {0.5, 0.2}, rng).ok());
  EXPECT_FALSE(BuildHorizontalSchedule(log, {}, rng).ok());
  EXPECT_FALSE(BuildHorizontalSchedule(log, {0.0, 0.5}, rng).ok());
}

TEST(SamplingTest, DeterministicGivenSeed) {
  dataset::ExamLog log = MakeLog(60);
  common::Rng rng_a(13);
  common::Rng rng_b(13);
  auto a = SamplePatients(log, 0.4, rng_a);
  auto b = SamplePatients(log, 0.4, rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

}  // namespace
}  // namespace transform
}  // namespace adahealth
