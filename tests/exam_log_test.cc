#include "dataset/exam_log.h"

#include <cstdio>

#include <gtest/gtest.h>
#include "common/csv.h"

namespace adahealth {
namespace dataset {
namespace {

ExamLog MakeSmallLog() {
  std::vector<Patient> patients;
  for (int32_t i = 0; i < 3; ++i) {
    patients.push_back({i, 50 + i, Patient::kUnknownProfile});
  }
  ExamDictionary dictionary;
  ExamTypeId hba1c = dictionary.Intern("hba1c");
  ExamTypeId fundus = dictionary.Intern("fundus_exam");
  ExamTypeId lipids = dictionary.Intern("lipid_panel");
  std::vector<ExamRecord> records{
      {0, hba1c, 10}, {0, hba1c, 100}, {0, fundus, 30},
      {1, hba1c, 5},  {1, lipids, 60}, {2, lipids, 90},
  };
  return ExamLog(std::move(patients), std::move(dictionary),
                 std::move(records));
}

TEST(ExamDictionaryTest, InternIsIdempotent) {
  ExamDictionary dictionary;
  EXPECT_EQ(dictionary.Intern("a"), 0);
  EXPECT_EQ(dictionary.Intern("b"), 1);
  EXPECT_EQ(dictionary.Intern("a"), 0);
  EXPECT_EQ(dictionary.size(), 2u);
  EXPECT_EQ(dictionary.Name(1), "b");
}

TEST(ExamDictionaryTest, LookupMissingIsNotFound) {
  ExamDictionary dictionary;
  dictionary.Intern("x");
  EXPECT_TRUE(dictionary.Lookup("x").ok());
  EXPECT_FALSE(dictionary.Lookup("y").ok());
}

TEST(ExamLogTest, BasicCounts) {
  ExamLog log = MakeSmallLog();
  EXPECT_EQ(log.num_patients(), 3u);
  EXPECT_EQ(log.num_exam_types(), 3u);
  EXPECT_EQ(log.num_records(), 6u);
}

TEST(ExamLogTest, ExamFrequencies) {
  ExamLog log = MakeSmallLog();
  EXPECT_EQ(log.ExamFrequencies(), (std::vector<int64_t>{3, 1, 2}));
}

TEST(ExamLogTest, RecordsPerPatient) {
  ExamLog log = MakeSmallLog();
  EXPECT_EQ(log.RecordsPerPatient(), (std::vector<int64_t>{3, 2, 1}));
}

TEST(ExamLogTest, PatientsPerExamCountsDistinct) {
  ExamLog log = MakeSmallLog();
  // hba1c: patients 0 and 1; fundus: 0; lipids: 1 and 2.
  EXPECT_EQ(log.PatientsPerExam(), (std::vector<int64_t>{2, 1, 2}));
}

TEST(ExamLogTest, CsvRoundTrip) {
  ExamLog log = MakeSmallLog();
  auto reloaded = ExamLog::FromCsv(log.ToCsv());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->num_patients(), log.num_patients());
  EXPECT_EQ(reloaded->num_exam_types(), log.num_exam_types());
  EXPECT_EQ(reloaded->num_records(), log.num_records());
  EXPECT_EQ(reloaded->ExamFrequencies(), log.ExamFrequencies());
  EXPECT_EQ(reloaded->records(), log.records());
}

TEST(ExamLogTest, FromCsvRejectsBadHeader) {
  EXPECT_FALSE(ExamLog::FromCsv("id,exam,day\n1,x,2\n").ok());
  EXPECT_FALSE(ExamLog::FromCsv("").ok());
}

TEST(ExamLogTest, FromCsvRejectsMalformedRows) {
  EXPECT_FALSE(ExamLog::FromCsv("patient_id,exam_type,day\n1,x\n").ok());
  EXPECT_FALSE(
      ExamLog::FromCsv("patient_id,exam_type,day\nfoo,x,1\n").ok());
  EXPECT_FALSE(
      ExamLog::FromCsv("patient_id,exam_type,day\n-2,x,1\n").ok());
  EXPECT_FALSE(
      ExamLog::FromCsv("patient_id,exam_type,day\n1,x,notaday\n").ok());
}

TEST(ExamLogTest, FromCsvRejectsIdsAndDaysBeyond32Bits) {
  // 3000000000 used to reach the log's invariant check as a negative
  // int32 and abort the process (the router parses every CSV upload).
  auto patient =
      ExamLog::FromCsv("patient_id,exam_type,day\n3000000000,HbA1c,1\n");
  EXPECT_EQ(patient.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(patient.status().message().find("'patient_id'"),
            std::string::npos)
      << patient.status().ToString();
  auto day = ExamLog::FromCsv("patient_id,exam_type,day\n1,HbA1c,4294967297\n");
  EXPECT_EQ(day.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(day.status().message().find("'day'"), std::string::npos)
      << day.status().ToString();
  // The int32 edges themselves are still accepted.
  auto edges = ExamLog::FromCsv(
      "patient_id,exam_type,day\n0,HbA1c,2147483647\n1,HbA1c,-2147483648\n");
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  EXPECT_EQ(edges->records()[0].day, 2147483647);
}

TEST(ExamLogTest, FromCsvRejectsAPatientIdSpanOverTheCap) {
  // One id just past the span: the log would allocate a slot for every
  // id below it.
  const std::string over = std::to_string(kMaxPatientIdSpan);
  auto log = ExamLog::FromCsv("patient_id,exam_type,day\n0,HbA1c,1\n" +
                              over + ",HbA1c,2\n");
  EXPECT_EQ(log.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(log.status().message().find("'patient_id'"), std::string::npos)
      << log.status().ToString();
}

TEST(ExamLogTest, AppendRejectsAPatientIdSpanOverTheCap) {
  ExamLog log = MakeSmallLog();
  const size_t patients = log.num_patients();
  const size_t records = log.num_records();
  RawExamRecord row;
  row.patient = static_cast<PatientId>(kMaxPatientIdSpan);
  row.exam_type = "hba1c";
  row.day = 1;
  const common::Status appended = log.Append({row});
  EXPECT_EQ(appended.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(appended.message().find("'patient'"), std::string::npos)
      << appended.ToString();
  // Validated before mutating: nothing was appended.
  EXPECT_EQ(log.num_patients(), patients);
  EXPECT_EQ(log.num_records(), records);
  // The last id inside the span still appends.
  row.patient = static_cast<PatientId>(kMaxPatientIdSpan - 1);
  ASSERT_TRUE(log.Append({row}).ok());
  EXPECT_EQ(log.num_patients(), static_cast<size_t>(kMaxPatientIdSpan));
}

TEST(ExamLogTest, SaveAndLoad) {
  ExamLog log = MakeSmallLog();
  std::string path = testing::TempDir() + "/exam_log_test.csv";
  ASSERT_TRUE(common::WriteStringToFile(path, log.ToCsv()).ok());
  auto text = common::ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  auto loaded = ExamLog::FromCsv(text.value());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_records(), log.num_records());
  std::remove(path.c_str());
}

TEST(ExamLogTest, FilterExamTypesKeepsPatients) {
  ExamLog log = MakeSmallLog();
  // Keep only hba1c.
  std::vector<bool> keep{true, false, false};
  ExamLog filtered = log.FilterExamTypes(keep);
  EXPECT_EQ(filtered.num_patients(), 3u);  // Patients retained.
  EXPECT_EQ(filtered.num_exam_types(), 1u);
  EXPECT_EQ(filtered.num_records(), 3u);
  EXPECT_EQ(filtered.dictionary().Name(0), "hba1c");
  // Patient 2 now has zero records but still exists.
  EXPECT_EQ(filtered.RecordsPerPatient(), (std::vector<int64_t>{2, 1, 0}));
}

TEST(ExamLogTest, FilterExamTypesRemapsIds) {
  ExamLog log = MakeSmallLog();
  std::vector<bool> keep{false, true, true};
  ExamLog filtered = log.FilterExamTypes(keep);
  EXPECT_EQ(filtered.num_exam_types(), 2u);
  for (const auto& record : filtered.records()) {
    EXPECT_GE(record.exam_type, 0);
    EXPECT_LT(record.exam_type, 2);
  }
  EXPECT_TRUE(filtered.dictionary().Lookup("fundus_exam").ok());
  EXPECT_TRUE(filtered.dictionary().Lookup("lipid_panel").ok());
  EXPECT_FALSE(filtered.dictionary().Lookup("hba1c").ok());
}

TEST(ExamLogTest, FilterPatientsReindexes) {
  ExamLog log = MakeSmallLog();
  ExamLog filtered = log.FilterPatients({2, 0});
  EXPECT_EQ(filtered.num_patients(), 2u);
  // Order follows the argument: new id 0 = old 2, new id 1 = old 0.
  EXPECT_EQ(filtered.patients()[0].age, 52);
  EXPECT_EQ(filtered.patients()[1].age, 50);
  EXPECT_EQ(filtered.num_records(), 4u);  // 1 (old 2) + 3 (old 0).
  for (const auto& record : filtered.records()) {
    EXPECT_LT(record.patient, 2);
  }
}

TEST(ExamLogTest, ProfileLabels) {
  std::vector<Patient> patients{{0, 40, 2}, {1, 41, 0}};
  ExamDictionary dictionary;
  dictionary.Intern("x");
  ExamLog log(std::move(patients), std::move(dictionary), {});
  EXPECT_EQ(log.ProfileLabels(), (std::vector<int32_t>{2, 0}));
}

}  // namespace
}  // namespace dataset
}  // namespace adahealth
