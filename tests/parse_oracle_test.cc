// Oracle tests for the parse-once path of a CSV upload:
//  * common::VisitCsvRows / ParseCsv and ExamLog::FromCsv against the
//    earlier ParseCsv + FromCsv row loop, kept verbatim below, on
//    generated CSVs (quotes, "" escapes, quoted delimiters and
//    newlines, CRLF and bare CR, blank lines, missing final newline,
//    '+' and leading spaces in integers, int64 overflow, values beyond
//    int32, negative ids, empty names, wrong field counts);
//  * ComputeMetaFeatures and ExamLog::PatientsPerExam against
//    std::set / per-exam hash-map oracles, bit for bit;
//  * DatasetFingerprint digests pinned for a few CSV and synthetic
//    submit bodies, so persisted result caches stay valid.
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "common/csv.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "dataset/exam_log.h"
#include "dataset/synthetic_cohort.h"
#include "service/fingerprint.h"
#include "service/protocol.h"
#include "stats/descriptors.h"
#include "stats/meta_features.h"
#include "test_util.h"

namespace adahealth {
namespace {

using common::InvalidArgumentError;
using common::Json;
using common::StatusOr;
using dataset::ExamDictionary;
using dataset::ExamLog;
using dataset::ExamRecord;
using dataset::Patient;
using dataset::PatientId;

// ---------------------------------------------------------------------
// The oracle: ParseInt64, ParseCsv and the FromCsv row loop as they
// were before the single-pass parse, verbatim.

StatusOr<int64_t> OracleParseInt64(std::string_view text) {
  if (text.empty()) return InvalidArgumentError("empty integer literal");
  std::string buffer(text);
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE) {
    return common::OutOfRangeError("integer out of range: " + buffer);
  }
  if (end == buffer.c_str() || *end != '\0') {
    return InvalidArgumentError("malformed integer: " + buffer);
  }
  return static_cast<int64_t>(value);
}

StatusOr<std::vector<std::vector<std::string>>> OracleParseCsv(
    std::string_view text, char delimiter = ',') {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_was_quoted = false;
  size_t i = 0;
  const size_t n = text.size();

  auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
    field_was_quoted = false;
  };
  auto end_row = [&]() {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field.push_back(c);
        ++i;
      }
      continue;
    }
    if (c == '"') {
      if (!field.empty() || field_was_quoted) {
        return InvalidArgumentError(
            "unexpected quote inside unquoted CSV field");
      }
      in_quotes = true;
      field_was_quoted = true;
      ++i;
    } else if (c == delimiter) {
      end_field();
      ++i;
    } else if (c == '\n') {
      end_row();
      ++i;
    } else if (c == '\r') {
      // Accept both \r\n and bare \r as row terminators.
      end_row();
      if (i + 1 < n && text[i + 1] == '\n') ++i;
      ++i;
    } else {
      field.push_back(c);
      ++i;
    }
  }
  if (in_quotes) {
    return InvalidArgumentError("unterminated quoted CSV field");
  }
  // Flush a trailing row without a final newline.
  if (!field.empty() || field_was_quoted || !row.empty()) end_row();
  return rows;
}

StatusOr<ExamLog> OracleFromCsv(const std::string& csv_text) {
  auto rows_or = OracleParseCsv(csv_text);
  if (!rows_or.ok()) return rows_or.status();
  const auto& rows = rows_or.value();
  if (rows.empty()) return InvalidArgumentError("empty exam-log CSV");
  const auto& header = rows[0];
  if (header.size() != 3 || header[0] != "patient_id" ||
      header[1] != "exam_type" || header[2] != "day") {
    return InvalidArgumentError(
        "exam-log CSV must have header patient_id,exam_type,day");
  }

  ExamDictionary dictionary;
  std::vector<ExamRecord> records;
  records.reserve(rows.size() - 1);
  PatientId max_patient = -1;
  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != 3) {
      return InvalidArgumentError("exam-log CSV row " + std::to_string(r) +
                                  " has wrong field count");
    }
    auto patient_or = OracleParseInt64(row[0]);
    if (!patient_or.ok()) return patient_or.status();
    auto day_or = OracleParseInt64(row[2]);
    if (!day_or.ok()) return day_or.status();
    if (patient_or.value() < 0) {
      return InvalidArgumentError("negative patient id in exam-log CSV");
    }
    // The one deliberate change to the old loop: ids and days are
    // narrowed with a range check instead of a wrapping cast.
    auto patient = common::CheckedInt32(patient_or.value(), "patient_id");
    if (!patient.ok()) return patient.status();
    ExamRecord record;
    record.patient = patient.value();
    record.exam_type = dictionary.Intern(row[1]);
    auto day = common::CheckedInt32(day_or.value(), "day");
    if (!day.ok()) return day.status();
    record.day = day.value();
    max_patient = std::max(max_patient, record.patient);
    records.push_back(record);
  }

  std::vector<Patient> patients(static_cast<size_t>(max_patient + 1));
  for (size_t i = 0; i < patients.size(); ++i) {
    patients[i].id = static_cast<PatientId>(i);
    patients[i].age = 0;
    patients[i].profile = Patient::kUnknownProfile;
  }
  return ExamLog(std::move(patients), std::move(dictionary),
                 std::move(records));
}

// ---------------------------------------------------------------------
// Generated exam-log CSVs.

/// Picks one of `options`.
template <typename T>
const T& Pick(common::Rng& rng, const std::vector<T>& options) {
  return options[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
}

/// Integer spellings. Patient ids stay small (the log allocates one
/// patient per id up to the largest), days span int32. Values that do
/// not fit in 32 bits are rejected in either column, so they are bad.
const std::vector<std::string> kGoodPatients = {
    "0", "1", "2", "3", "7", "12", "+4", " 5", "  6", "\t2", "007",
    "-0", "+0"};
const std::vector<std::string> kGoodDays = {
    "0",   "1",  "30",  "365", "+10", " 7",  "-3", "-365", "0012",
    "2147483647", "-2147483648"};
const std::vector<std::string> kBadInts = {
    "",   "-1",  "-12", "x",   "1e3", "12 ", "1.5", "+",  "-", "+-1",
    "0x10", "9223372036854775808", "-9223372036854775809",
    "99999999999999999999", "1234567890123456789012",
    "4294967296", "4294967299", "2147483648", "123456789012345678",
    "9223372036854775807", "-9223372036854775808"};
const std::vector<std::string> kGoodNames = {
    "glucose",        "hba1c",           "a",
    "x y",            "\"glucose\"",     "\"quoted, name\"",
    "\"say \"\"hi\"\"\"", "\"multi\nline\"", "\"cr\r\nlf\"",
    "\"bare\rcr\"",   "\"\"",            "",
    "\"ab\"tail",     "\xc3\xa9t\xc3\xa9", "\"\"\"\"",
    " padded ",       "\"a\"\"\"b"};
const std::vector<std::string> kBadNames = {"bad\"quote", "\"x\"y\"",
                                            "\"unterminated"};
const std::vector<std::string> kTerminators = {"\n", "\r\n", "\r"};

/// One generated document. `error_rate` is the chance that any one
/// field is drawn from the bad pools.
std::string GenerateExamCsv(common::Rng& rng, double error_rate) {
  std::string text;
  const double header_roll = rng.UniformDouble();
  if (header_roll < 0.02) {
    text += "patient_id,exam,day";
  } else if (header_roll < 0.04) {
    text += "patient_id,exam_type";
  } else if (header_roll < 0.10) {
    text += "\"patient_id\",exam_type,\"day\"";
  } else if (header_roll > 0.995) {
    return text;  // Empty document.
  } else {
    text += "patient_id,exam_type,day";
  }
  const int64_t rows = rng.UniformInt(0, 40);
  for (int64_t r = 0; r < rows; ++r) {
    text += Pick(rng, kTerminators);
    if (test::Bernoulli(rng, 0.03)) continue;  // A blank line.
    int64_t fields = 3;
    if (test::Bernoulli(rng, error_rate)) {
      fields = test::Bernoulli(rng, 0.5) ? 2 : 4;
    }
    for (int64_t f = 0; f < fields; ++f) {
      if (f > 0) text += ',';
      const bool bad = test::Bernoulli(rng, error_rate);
      if (f == 1) {
        text += Pick(rng, bad ? kBadNames : kGoodNames);
      } else if (f == 0) {
        text += Pick(rng, bad ? kBadInts : kGoodPatients);
      } else {
        text += Pick(rng, bad ? kBadInts : kGoodDays);
      }
    }
  }
  if (test::Bernoulli(rng, 0.5)) text += Pick(rng, kTerminators);
  return text;
}

void ExpectSameLog(const StatusOr<ExamLog>& got,
                   const StatusOr<ExamLog>& want, const std::string& text) {
  ASSERT_EQ(got.ok(), want.ok())
      << "got " << got.status().ToString() << ", want "
      << want.status().ToString() << " on:\n"
      << text;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << text;
    EXPECT_EQ(got.status().message(), want.status().message()) << text;
    return;
  }
  EXPECT_EQ(got->patients(), want->patients()) << text;
  EXPECT_EQ(got->dictionary().names(), want->dictionary().names()) << text;
  ASSERT_EQ(got->num_records(), want->num_records()) << text;
  for (size_t i = 0; i < want->num_records(); ++i) {
    const ExamRecord& a = got->records()[i];
    const ExamRecord& b = want->records()[i];
    EXPECT_EQ(a.patient, b.patient) << "record " << i << " of:\n" << text;
    EXPECT_EQ(a.exam_type, b.exam_type) << "record " << i << " of:\n" << text;
    EXPECT_EQ(a.day, b.day) << "record " << i << " of:\n" << text;
  }
}

TEST(CsvOracleTest, FromCsvMatchesTheTwoPassParseOnGeneratedLogs) {
  common::Rng rng(20);
  int accepted = 0;
  int rejected = 0;
  for (int doc = 0; doc < 3000; ++doc) {
    // A third of the documents are clean, the rest carry errors at
    // rates from rare to frequent.
    const double error_rate = doc % 3 == 0 ? 0.0 : 0.002 * (doc % 40);
    const std::string text = GenerateExamCsv(rng, error_rate);
    StatusOr<ExamLog> want = OracleFromCsv(text);
    ExpectSameLog(ExamLog::FromCsv(text), want, text);
    if (HasFailure()) return;
    (want.ok() ? accepted : rejected) += 1;
  }
  // Both outcomes are exercised in bulk.
  EXPECT_GT(accepted, 800);
  EXPECT_GT(rejected, 500);
}

TEST(CsvOracleTest, ParseCsvMatchesOnArbitraryBytes) {
  // Any byte sequence over the CSV alphabet: rows of arbitrary width,
  // so both the tokenizer's rows and its errors are compared.
  const std::string alphabet = "ab,\"\r\n ";
  common::Rng rng(21);
  for (int doc = 0; doc < 20000; ++doc) {
    std::string text;
    const int64_t length = rng.UniformInt(0, 24);
    for (int64_t i = 0; i < length; ++i) {
      text += alphabet[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(alphabet.size()) - 1))];
    }
    for (char delimiter : {',', ';'}) {
      auto got = common::ParseCsv(text, delimiter);
      auto want = OracleParseCsv(text, delimiter);
      ASSERT_EQ(got.ok(), want.ok()) << '[' << text << ']';
      if (want.ok()) {
        ASSERT_EQ(got.value(), want.value()) << '[' << text << ']';
      } else {
        ASSERT_EQ(got.status().message(), want.status().message())
            << '[' << text << ']';
      }
    }
  }
}

TEST(CsvOracleTest, CsvSyntaxErrorWinsOverAnEarlierRowError) {
  // Row 1 has the wrong field count, but the text is not valid CSV:
  // the CSV error is the one reported, as when the whole text was
  // tokenized before any row was judged.
  const std::string text =
      "patient_id,exam_type,day\n0,a\n1,b,2\n2,\"open,3\n";
  auto got = ExamLog::FromCsv(text);
  EXPECT_EQ(got.status().message(), "unterminated quoted CSV field");
  ExpectSameLog(got, OracleFromCsv(text), text);
}

TEST(CsvOracleTest, UnquotedFieldsViewTheInput) {
  const std::string text = "a,\"b\",\"c\"\"d\"\n";
  std::vector<std::vector<std::string_view>> rows;
  ASSERT_TRUE(common::VisitCsvRows(
                  text,
                  [&](const std::vector<std::string_view>& fields) {
                    rows.push_back(fields);
                    // Plain and simply-quoted fields point into `text`;
                    // the escaped one cannot.
                    EXPECT_EQ(fields[0].data(), text.data());
                    EXPECT_EQ(fields[1].data(), text.data() + 3);
                    EXPECT_EQ(fields[2], "c\"d");
                  })
                  .ok());
  EXPECT_EQ(rows.size(), 1u);
}

// ---------------------------------------------------------------------
// Meta-features against std::set / hash-map oracles, bit for bit.

std::vector<int64_t> OraclePatientsPerExam(const ExamLog& log) {
  std::vector<std::unordered_map<PatientId, bool>> seen(log.num_exam_types());
  std::vector<int64_t> counts(log.num_exam_types(), 0);
  for (const ExamRecord& record : log.records()) {
    auto& patients_seen = seen[static_cast<size_t>(record.exam_type)];
    if (patients_seen.emplace(record.patient, true).second) {
      ++counts[static_cast<size_t>(record.exam_type)];
    }
  }
  return counts;
}

stats::MetaFeatures OracleMetaFeatures(const ExamLog& log) {
  stats::MetaFeatures features;
  features.num_patients = static_cast<int64_t>(log.num_patients());
  features.num_exam_types = static_cast<int64_t>(log.num_exam_types());
  features.num_records = static_cast<int64_t>(log.num_records());

  std::set<std::pair<int32_t, int32_t>> cells;
  for (const auto& record : log.records()) {
    cells.emplace(record.patient, record.exam_type);
  }
  const double total_cells = static_cast<double>(log.num_patients()) *
                             static_cast<double>(log.num_exam_types());
  features.density =
      total_cells > 0.0 ? static_cast<double>(cells.size()) / total_cells
                        : 0.0;

  stats::Summary per_patient = stats::Summarize(log.RecordsPerPatient());
  features.mean_records_per_patient = per_patient.mean;
  features.stddev_records_per_patient = per_patient.stddev;

  std::vector<int64_t> frequencies = log.ExamFrequencies();
  features.exam_frequency_entropy = stats::NormalizedEntropy(frequencies);
  features.exam_frequency_gini = stats::GiniCoefficient(frequencies);
  features.top20_coverage = stats::TopFractionCoverage(frequencies, 0.20);
  features.top40_coverage = stats::TopFractionCoverage(frequencies, 0.40);

  std::vector<int64_t> patients_per_exam = OraclePatientsPerExam(log);
  double coverage_sum = 0.0;
  for (int64_t c : patients_per_exam) {
    coverage_sum += log.num_patients() > 0
                        ? static_cast<double>(c) /
                              static_cast<double>(log.num_patients())
                        : 0.0;
  }
  features.mean_patient_coverage =
      patients_per_exam.empty()
          ? 0.0
          : coverage_sum / static_cast<double>(patients_per_exam.size());
  return features;
}

/// A random log: some patients and exam types without records, repeat
/// (patient, exam) cells, records in arbitrary order.
ExamLog RandomLog(common::Rng& rng) {
  const int64_t num_patients = rng.UniformInt(0, 60);
  const int64_t num_exams = rng.UniformInt(0, 25);
  std::vector<Patient> patients(static_cast<size_t>(num_patients));
  for (size_t i = 0; i < patients.size(); ++i) {
    patients[i].id = static_cast<PatientId>(i);
  }
  ExamDictionary dictionary;
  for (int64_t e = 0; e < num_exams; ++e) {
    dictionary.Intern("exam" + std::to_string(e));
  }
  std::vector<ExamRecord> records;
  if (num_patients > 0 && num_exams > 0) {
    const int64_t count = rng.UniformInt(0, 400);
    // A narrow id window in some logs makes repeat cells common.
    const int64_t patient_span = rng.UniformInt(1, num_patients);
    const int64_t exam_span = rng.UniformInt(1, num_exams);
    for (int64_t r = 0; r < count; ++r) {
      ExamRecord record;
      record.patient = static_cast<PatientId>(rng.UniformInt(0, patient_span - 1));
      record.exam_type =
          static_cast<dataset::ExamTypeId>(rng.UniformInt(0, exam_span - 1));
      record.day = static_cast<int32_t>(rng.UniformInt(0, 364));
      records.push_back(record);
    }
  }
  return ExamLog(std::move(patients), std::move(dictionary),
                 std::move(records));
}

TEST(MetaFeaturesOracleTest, BitIdenticalToTheSetOracle) {
  common::Rng rng(22);
  for (int trial = 0; trial < 500; ++trial) {
    const ExamLog log = RandomLog(rng);
    ASSERT_EQ(log.PatientsPerExam(), OraclePatientsPerExam(log));
    const std::vector<double> got = stats::ComputeMetaFeatures(log).ToVector();
    const std::vector<double> want = OracleMetaFeatures(log).ToVector();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
          << stats::MetaFeatures::FeatureNames()[i] << " in trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------
// Golden fingerprints: the digests persisted caches are keyed by.

std::vector<Json> GoldenBodies() {
  std::vector<Json> bodies;
  {
    // Hand-written CSV: quoted names, escaped quotes, CRLF, '+' and
    // leading spaces in integers, no final newline.
    Json::Object body;
    body["csv"] = std::string(
        "patient_id,exam_type,day\r\n"
        "0,\"glucose, fasting\",3\r\n"
        "1,hba1c,4\r\n"
        "0,hba1c,+10\r\n"
        "2,\"say \"\"hi\"\"\", 1\r\n"
        "1,\"glucose, fasting\",7");
    bodies.push_back(Json(std::move(body)));
  }
  {
    dataset::CohortConfig config = dataset::TestScaleConfig();
    config.num_patients = 150;
    config.num_exam_types = 30;
    config.seed = 3;
    auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
    Json::Object options;
    options["candidate_ks"] =
        Json(Json::Array{Json(int64_t{2}), Json(int64_t{3})});
    options["cv_folds"] = Json(int64_t{3});
    options["seed"] = Json(int64_t{5});
    Json::Object body;
    body["csv"] = cohort.value().log.ToCsv();
    body["dataset_id"] = std::string("golden-csv");
    body["options"] = Json(std::move(options));
    bodies.push_back(Json(std::move(body)));
  }
  {
    Json::Object synthetic;
    synthetic["patients"] = Json(int64_t{80});
    synthetic["exam_types"] = Json(int64_t{20});
    synthetic["seed"] = Json(int64_t{3});
    Json::Object body;
    body["synthetic"] = Json(std::move(synthetic));
    bodies.push_back(Json(std::move(body)));
  }
  {
    Json::Object synthetic;
    synthetic["patients"] = Json(int64_t{400});
    synthetic["exam_types"] = Json(int64_t{48});
    synthetic["profiles"] = Json(int64_t{5});
    synthetic["seed"] = Json(int64_t{11});
    Json::Object options;
    options["restarts"] = Json(int64_t{2});
    options["max_selected_items"] = Json(int64_t{7});
    options["sample_fraction"] = Json(0.5);
    Json::Object body;
    body["synthetic"] = Json(std::move(synthetic));
    body["use_taxonomy"] = Json(false);
    body["dataset_id"] = std::string("golden-synthetic");
    body["options"] = Json(std::move(options));
    bodies.push_back(Json(std::move(body)));
  }
  return bodies;
}

TEST(FingerprintGoldenTest, DigestsArePinned) {
  // Recorded before the single-pass parse and the sort-unique density
  // count; any change here orphans every persisted cache entry.
  const std::vector<std::string> expected = {
      "09a41736ca457959",
      "1c378e18f2511305",
      "d75b70abbb6732a7",
      "2e6977068b8e80f7",
  };
  const std::vector<Json> bodies = GoldenBodies();
  ASSERT_EQ(bodies.size(), expected.size());
  for (size_t i = 0; i < bodies.size(); ++i) {
    auto request = service::BuildJobRequest(bodies[i]);
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    EXPECT_EQ(service::DatasetFingerprint(request->log, request->options),
              expected[i])
        << "body " << i;
  }
}

}  // namespace
}  // namespace adahealth
