// The examination-log dataset: the central data container of the
// reproduction (paper §IV: 6,380 patients, 95,788 records, 159 exam
// types over one year).
#ifndef ADAHEALTH_DATASET_EXAM_LOG_H_
#define ADAHEALTH_DATASET_EXAM_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dataset/exam_dictionary.h"
#include "dataset/exam_record.h"

namespace adahealth {
namespace dataset {

/// Patient ids index a dense patient table, so id N costs N + 1
/// patient slots. Every input path caps that span — a CSV upload, an
/// appended batch, a synthetic cohort's size — so a two-line upload
/// cannot make the process allocate gigabytes.
inline constexpr int64_t kMaxPatientIdSpan = int64_t{1} << 22;

/// The shortest record a records CSV can hold: "0,,0" and its newline.
inline constexpr int64_t kShortestCsvRecordBytes = 5;

/// The most records a dataset source may ask for: as many as the
/// service's 4 MiB request line (service::kMaxLineBytes) can carry as
/// CSV records. A CSV upload is bounded by that line already; a
/// synthetic cohort's expected size is checked against this before the
/// generator allocates, so both sources are bounded alike.
inline constexpr int64_t kMaxCohortRecords =
    (int64_t{4} << 20) / kShortestCsvRecordBytes;

/// INVALID_ARGUMENT naming `field` when `span` patient slots (the
/// largest id + 1, or a cohort size) exceed kMaxPatientIdSpan.
[[nodiscard]] common::Status CheckPatientIdSpan(int64_t span,
                                                std::string_view field);

/// One not-yet-interned record as it arrives from an ingestion source:
/// the exam type is still a name, not a dictionary id.
struct RawExamRecord {
  PatientId patient = 0;
  std::string exam_type;
  int32_t day = 0;
};

/// Validates a batch the way ExamLog::Append does before it mutates
/// anything: every patient id non-negative and inside
/// kMaxPatientIdSpan, every exam name non-empty. A batch that passes
/// cannot make Append fail.
[[nodiscard]] common::Status CheckRawRecords(
    const std::vector<RawExamRecord>& rows);

/// In-memory examination log: patients, exam-type dictionary, and the
/// flat record table. Invariants (enforced by the builders/loaders):
/// every record references an existing patient and exam type, and
/// patient ids are dense 0..num_patients-1.
class ExamLog {
 public:
  ExamLog() = default;
  ExamLog(std::vector<Patient> patients, ExamDictionary dictionary,
          std::vector<ExamRecord> records);

  /// Parses a records CSV with header "patient_id,exam_type,day" in one
  /// pass over the text (common::VisitCsvRows). Patients are
  /// materialized from the distinct ids seen (ages and profiles
  /// unknown). Fails on malformed CSV or rows; a CSV syntax error
  /// anywhere wins over a row error.
  [[nodiscard]] static common::StatusOr<ExamLog> FromCsv(
      std::string_view csv_text);

  /// Appends raw records in arrival order, interning new exam-type
  /// names and materializing new patients (ages/profiles unknown)
  /// exactly as FromCsv would have: appending batches B1..Bn to an
  /// empty log yields the same log as one FromCsv over their
  /// concatenation — the streaming-ingestion invariant the cohort
  /// store's delta-vs-cold identity rests on. Validates before
  /// mutating (CheckRawRecords): a rejected batch leaves the log
  /// untouched.
  [[nodiscard]] common::Status Append(const std::vector<RawExamRecord>& rows);

  /// Serializes the record table to CSV (inverse of FromCsv).
  std::string ToCsv() const;

  size_t num_patients() const { return patients_.size(); }
  size_t num_exam_types() const { return dictionary_.size(); }
  size_t num_records() const { return records_.size(); }

  const std::vector<Patient>& patients() const { return patients_; }
  const ExamDictionary& dictionary() const { return dictionary_; }
  const std::vector<ExamRecord>& records() const { return records_; }

  /// Number of records per exam type, indexed by ExamTypeId.
  std::vector<int64_t> ExamFrequencies() const;

  /// Number of records per patient, indexed by PatientId.
  std::vector<int64_t> RecordsPerPatient() const;

  /// Number of *distinct* patients that underwent each exam type.
  std::vector<int64_t> PatientsPerExam() const;

  /// Ground-truth profile labels (kUnknownProfile where absent).
  std::vector<int32_t> ProfileLabels() const;

  /// Returns a copy restricted to records whose exam type is in `keep`
  /// (a boolean mask indexed by ExamTypeId). Patients are preserved
  /// (including those left with zero records) so that horizontal
  /// cardinality is unchanged — this is the paper's vertical reduction
  /// that "reduc[es] the cardinality of the feature space while
  /// retaining the total number of patients".
  ExamLog FilterExamTypes(const std::vector<bool>& keep) const;

  /// Returns a copy restricted to the given patients (dense re-ids).
  /// This is the paper's horizontal reduction.
  ExamLog FilterPatients(const std::vector<PatientId>& patient_ids) const;

 private:
  std::vector<Patient> patients_;
  ExamDictionary dictionary_;
  std::vector<ExamRecord> records_;
};

}  // namespace dataset
}  // namespace adahealth

#endif  // ADAHEALTH_DATASET_EXAM_LOG_H_
