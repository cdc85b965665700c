#include "dataset/exam_log.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/csv.h"
#include "common/string_util.h"

namespace adahealth {
namespace dataset {

using common::InvalidArgumentError;
using common::Status;
using common::StatusOr;

ExamLog::ExamLog(std::vector<Patient> patients, ExamDictionary dictionary,
                 std::vector<ExamRecord> records)
    : patients_(std::move(patients)),
      dictionary_(std::move(dictionary)),
      records_(std::move(records)) {
  // invariant: callers (FromCsv, the Filter* rebuilders) construct
  // dense, validated ids before reaching this constructor; raw user
  // input is rejected with Status in FromCsv, never here.
  for (size_t i = 0; i < patients_.size(); ++i) {
    ADA_CHECK_EQ(patients_[i].id, static_cast<PatientId>(i));
  }
  // invariant: same as above — record ids were validated or interned.
  for (const ExamRecord& record : records_) {
    ADA_CHECK_GE(record.patient, 0);
    ADA_CHECK_LT(static_cast<size_t>(record.patient), patients_.size());
    ADA_CHECK_GE(record.exam_type, 0);
    ADA_CHECK_LT(static_cast<size_t>(record.exam_type), dictionary_.size());
  }
}

Status CheckPatientIdSpan(int64_t span, std::string_view field) {
  if (span <= kMaxPatientIdSpan) return common::OkStatus();
  return InvalidArgumentError(common::StrFormat(
      "field '%.*s' is out of range: %lld patient slots exceed the cap of "
      "%lld",
      static_cast<int>(field.size()), field.data(),
      static_cast<long long>(span),
      static_cast<long long>(kMaxPatientIdSpan)));
}

StatusOr<ExamLog> ExamLog::FromCsv(std::string_view csv_text) {
  ExamDictionary dictionary;
  std::vector<ExamRecord> records;
  PatientId max_patient = -1;
  size_t row_index = 0;
  // The first row-level error. Tokenizing goes on past it, because a
  // CSV syntax error anywhere in the text takes precedence: the text is
  // rejected as CSV before any row is judged.
  Status row_error;
  auto consume_row = [&](const std::vector<std::string_view>& row) -> Status {
    const size_t r = row_index++;
    if (r == 0) {
      if (row.size() != 3 || row[0] != "patient_id" ||
          row[1] != "exam_type" || row[2] != "day") {
        return InvalidArgumentError(
            "exam-log CSV must have header patient_id,exam_type,day");
      }
      return common::OkStatus();
    }
    if (row.size() != 3) {
      return InvalidArgumentError("exam-log CSV row " + std::to_string(r) +
                                  " has wrong field count");
    }
    ADA_ASSIGN_OR_RETURN(int64_t patient, common::ParseInt64(row[0]));
    ADA_ASSIGN_OR_RETURN(int64_t day, common::ParseInt64(row[2]));
    if (patient < 0) {
      return InvalidArgumentError("negative patient id in exam-log CSV");
    }
    ExamRecord record;
    ADA_ASSIGN_OR_RETURN(record.patient,
                         common::CheckedInt32(patient, "patient_id"));
    ADA_RETURN_IF_ERROR(CheckPatientIdSpan(patient + 1, "patient_id"));
    record.exam_type = dictionary.Intern(row[1]);
    ADA_ASSIGN_OR_RETURN(record.day, common::CheckedInt32(day, "day"));
    max_patient = std::max(max_patient, record.patient);
    records.push_back(record);
    return common::OkStatus();
  };
  ADA_RETURN_IF_ERROR(common::VisitCsvRows(
      csv_text, [&](const std::vector<std::string_view>& row) {
        if (row_error.ok()) row_error = consume_row(row);
      }));
  ADA_RETURN_IF_ERROR(row_error);
  if (row_index == 0) return InvalidArgumentError("empty exam-log CSV");

  std::vector<Patient> patients(static_cast<size_t>(max_patient + 1));
  for (size_t i = 0; i < patients.size(); ++i) {
    patients[i].id = static_cast<PatientId>(i);
    patients[i].age = 0;
    patients[i].profile = Patient::kUnknownProfile;
  }
  return ExamLog(std::move(patients), std::move(dictionary),
                 std::move(records));
}

Status CheckRawRecords(const std::vector<RawExamRecord>& rows) {
  for (const RawExamRecord& row : rows) {
    if (row.patient < 0) {
      return InvalidArgumentError("negative patient id in appended records");
    }
    ADA_RETURN_IF_ERROR(
        CheckPatientIdSpan(int64_t{row.patient} + 1, "patient"));
    if (row.exam_type.empty()) {
      return InvalidArgumentError("empty exam-type name in appended records");
    }
  }
  return common::OkStatus();
}

Status ExamLog::Append(const std::vector<RawExamRecord>& rows) {
  ADA_RETURN_IF_ERROR(CheckRawRecords(rows));
  PatientId max_patient =
      patients_.empty() ? -1
                        : static_cast<PatientId>(patients_.size() - 1);
  records_.reserve(records_.size() + rows.size());
  for (const RawExamRecord& row : rows) {
    ExamRecord record;
    record.patient = row.patient;
    record.exam_type = dictionary_.Intern(row.exam_type);
    record.day = row.day;
    max_patient = std::max(max_patient, record.patient);
    records_.push_back(record);
  }
  // Densify the patient table up to the highest id seen, with the same
  // unknown age/profile placeholders FromCsv materializes.
  for (PatientId id = static_cast<PatientId>(patients_.size());
       id <= max_patient; ++id) {
    Patient patient;
    patient.id = id;
    patient.age = 0;
    patient.profile = Patient::kUnknownProfile;
    patients_.push_back(patient);
  }
  return common::OkStatus();
}

std::string ExamLog::ToCsv() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(records_.size() + 1);
  rows.push_back({"patient_id", "exam_type", "day"});
  for (const ExamRecord& record : records_) {
    rows.push_back({std::to_string(record.patient),
                    dictionary_.Name(record.exam_type),
                    std::to_string(record.day)});
  }
  return common::WriteCsv(rows);
}

std::vector<int64_t> ExamLog::ExamFrequencies() const {
  std::vector<int64_t> counts(dictionary_.size(), 0);
  for (const ExamRecord& record : records_) {
    ++counts[static_cast<size_t>(record.exam_type)];
  }
  return counts;
}

std::vector<int64_t> ExamLog::RecordsPerPatient() const {
  std::vector<int64_t> counts(patients_.size(), 0);
  for (const ExamRecord& record : records_) {
    ++counts[static_cast<size_t>(record.patient)];
  }
  return counts;
}

std::vector<int64_t> ExamLog::PatientsPerExam() const {
  // Distinct (patient, exam) cells: one sort-unique pass over packed
  // (exam << 32 | patient) keys, then a count per exam. A bitset per
  // exam would cost |E|*|P| bits.
  std::vector<uint64_t> cells;
  cells.reserve(records_.size());
  for (const ExamRecord& record : records_) {
    const uint64_t exam = static_cast<uint32_t>(record.exam_type);
    cells.push_back((exam << 32) | static_cast<uint32_t>(record.patient));
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  std::vector<int64_t> counts(dictionary_.size(), 0);
  for (uint64_t cell : cells) ++counts[static_cast<size_t>(cell >> 32)];
  return counts;
}

std::vector<int32_t> ExamLog::ProfileLabels() const {
  std::vector<int32_t> labels(patients_.size());
  for (size_t i = 0; i < patients_.size(); ++i) labels[i] = patients_[i].profile;
  return labels;
}

ExamLog ExamLog::FilterExamTypes(const std::vector<bool>& keep) const {
  // invariant: API precondition — `keep` is produced by code that read
  // dictionary_.size(), not by end-user input.
  ADA_CHECK_EQ(keep.size(), dictionary_.size());
  // Rebuild a dense dictionary over the kept types.
  ExamDictionary new_dictionary;
  std::vector<ExamTypeId> remap(dictionary_.size(), -1);
  for (size_t e = 0; e < dictionary_.size(); ++e) {
    if (keep[e]) {
      remap[e] =
          new_dictionary.Intern(dictionary_.Name(static_cast<ExamTypeId>(e)));
    }
  }
  std::vector<ExamRecord> new_records;
  new_records.reserve(records_.size());
  for (const ExamRecord& record : records_) {
    ExamTypeId mapped = remap[static_cast<size_t>(record.exam_type)];
    if (mapped < 0) continue;
    ExamRecord copy = record;
    copy.exam_type = mapped;
    new_records.push_back(copy);
  }
  return ExamLog(patients_, std::move(new_dictionary), std::move(new_records));
}

ExamLog ExamLog::FilterPatients(
    const std::vector<PatientId>& patient_ids) const {
  std::vector<PatientId> remap(patients_.size(), -1);
  std::vector<Patient> new_patients;
  new_patients.reserve(patient_ids.size());
  // invariant: API precondition — callers pass ids they obtained from
  // this log (e.g. sampling indices), so out-of-range or duplicate ids
  // are programmer errors, not data errors.
  for (PatientId id : patient_ids) {
    ADA_CHECK_GE(id, 0);
    ADA_CHECK_LT(static_cast<size_t>(id), patients_.size());
    // invariant: see above — duplicate ids are a caller bug.
    ADA_CHECK_MSG(remap[static_cast<size_t>(id)] < 0,
                  "duplicate patient id %d in FilterPatients", id);
    Patient patient = patients_[static_cast<size_t>(id)];
    patient.id = static_cast<PatientId>(new_patients.size());
    remap[static_cast<size_t>(id)] = patient.id;
    new_patients.push_back(patient);
  }
  std::vector<ExamRecord> new_records;
  for (const ExamRecord& record : records_) {
    PatientId mapped = remap[static_cast<size_t>(record.patient)];
    if (mapped < 0) continue;
    ExamRecord copy = record;
    copy.patient = mapped;
    new_records.push_back(copy);
  }
  return ExamLog(std::move(new_patients), dictionary_, std::move(new_records));
}

}  // namespace dataset
}  // namespace adahealth
