#include "service/cohort_store.h"

#include <dirent.h>

#include <cmath>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "service/store_log.h"

namespace adahealth {
namespace service {

using common::Json;
using common::Status;
using common::StatusOr;

namespace {

constexpr size_t kMaxCohortName = 64;
/// Warm-start drift gate: when more than this fraction of the cohort's
/// records arrived after the last analyzed generation, the prior
/// centroids are considered stale and the next job runs cold.
constexpr double kDriftThreshold = 0.5;

StatusOr<int64_t> IntField(const Json& object, std::string_view key) {
  const Json* field = object.Find(key);
  if (field == nullptr || !field->is_int()) {
    return common::DataLossError("entry lacks integer field '" +
                                 std::string(key) + "'");
  }
  return field->AsInt();
}

Json RecordsJson(const std::vector<dataset::RawExamRecord>& rows) {
  Json::Array records;
  records.reserve(rows.size());
  for (const dataset::RawExamRecord& row : rows) {
    records.emplace_back(Json::Array{Json(int64_t{row.patient}),
                                     Json(row.exam_type),
                                     Json(int64_t{row.day})});
  }
  return Json(std::move(records));
}

StatusOr<std::vector<dataset::RawExamRecord>> RecordsFromJson(
    const Json* records) {
  if (records == nullptr || !records->is_array() ||
      records->AsArray().empty()) {
    return common::DataLossError("ingest entry has no records");
  }
  std::vector<dataset::RawExamRecord> rows;
  rows.reserve(records->AsArray().size());
  for (const Json& record : records->AsArray()) {
    if (!record.is_array() || record.AsArray().size() != 3 ||
        !record.AsArray()[0].is_int() || !record.AsArray()[1].is_string() ||
        !record.AsArray()[2].is_int()) {
      return common::DataLossError("malformed record in ingest entry");
    }
    dataset::RawExamRecord row;
    ADA_ASSIGN_OR_RETURN(row.patient,
                         common::CheckedInt32(record.AsArray()[0].AsInt(),
                                              "patient"));
    row.exam_type = record.AsArray()[1].AsString();
    ADA_ASSIGN_OR_RETURN(
        row.day, common::CheckedInt32(record.AsArray()[2].AsInt(), "day"));
    rows.push_back(std::move(row));
  }
  ADA_RETURN_IF_ERROR(dataset::CheckRawRecords(rows));
  return rows;
}

std::string IngestEntry(const std::string& cohort, int64_t generation,
                        Json records) {
  Json::Object entry;
  entry["kind"] = "ingest";
  entry["cohort"] = cohort;
  entry["generation"] = generation;
  entry["records"] = std::move(records);
  return Json(std::move(entry)).Dump();
}

/// The log's records of one cohort as an arrival-order batch.
std::vector<dataset::RawExamRecord> ToRawRecords(const dataset::ExamLog& log) {
  std::vector<dataset::RawExamRecord> rows;
  rows.reserve(log.num_records());
  for (const dataset::ExamRecord& record : log.records()) {
    rows.push_back(dataset::RawExamRecord{
        record.patient, std::string(log.dictionary().Name(record.exam_type)),
        record.day});
  }
  return rows;
}

bool AllFinite(const transform::Matrix& matrix) {
  for (size_t r = 0; r < matrix.rows(); ++r) {
    for (double value : matrix.Row(r)) {
      if (!std::isfinite(value)) return false;
    }
  }
  return true;
}

/// FAILED_PRECONDITION naming the first file of the per-cohort
/// `<name>.manifest.json` + `<name>.records` layout in `directory`.
Status RefuseOldLayout(const std::string& directory) {
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) {
    return common::UnavailableError("cannot list cohort directory " +
                                    directory);
  }
  std::string found;
  while (dirent* entry = ::readdir(dir)) {
    const std::string_view name = entry->d_name;
    if (name.ends_with(".manifest.json") || name.ends_with(".records")) {
      found = name;
      break;
    }
  }
  ::closedir(dir);
  if (found.empty()) return common::OkStatus();
  return common::FailedPreconditionError(
      "cohort directory " + directory + " holds '" + found +
      "' of the per-cohort records/manifest layout, which this store does "
      "not read; start over an empty directory");
}

}  // namespace

bool IsValidCohortName(std::string_view name) {
  if (name.empty() || name.size() > kMaxCohortName) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

CohortStore::CohortStore(CohortStoreOptions options)
    : options_(std::move(options)) {
  if (options_.directory.empty()) return;
  common::MutexLock lock(&mutex_);
  open_status_ = Open();
  if (!open_status_.ok()) {
    ADA_LOG(kError) << "cohort store: " << open_status_.ToString();
    log_.reset();
    cohorts_.clear();
    stats_ = CohortStoreStats();
  }
}

CohortStore::~CohortStore() = default;

Status CohortStore::Open() {
  log_ = std::make_unique<StoreLog>(options_.directory, kStoreLogFile,
                                    "service.ingest.snapshot");
  ADA_RETURN_IF_ERROR(RefuseOldLayout(options_.directory));
  ADA_RETURN_IF_ERROR(log_->Replay(
      [this](const Json& entry, size_t bytes) ADA_REQUIRES(mutex_) {
        return ApplyEntry(entry, bytes);
      }));
  for (const auto& [name, state] : cohorts_) {
    stats_.batches += state.generation;
    stats_.records += static_cast<int64_t>(state.log.num_records());
  }
  return common::OkStatus();
}

Status CohortStore::ApplyEntry(const Json& entry, size_t bytes) {
  const Json* kind = entry.Find("kind");
  const Json* cohort = entry.Find("cohort");
  if (kind == nullptr || !kind->is_string() || cohort == nullptr ||
      !cohort->is_string() || !IsValidCohortName(cohort->AsString())) {
    return common::DataLossError("entry lacks a kind or a valid cohort");
  }
  ADA_ASSIGN_OR_RETURN(const int64_t generation,
                       IntField(entry, "generation"));
  if (kind->AsString() == "ingest") {
    ADA_ASSIGN_OR_RETURN(std::vector<dataset::RawExamRecord> rows,
                         RecordsFromJson(entry.Find("records")));
    CohortState& state = cohorts_[cohort->AsString()];
    // A fold writes a cohort's whole log as one entry at its current
    // generation, so a generation may jump, but never repeat.
    if (generation <= state.generation) {
      return common::DataLossError("ingest generation does not advance");
    }
    // invariant: RecordsFromJson ran CheckRawRecords on the batch.
    ADA_CHECK_OK(state.log.Append(rows));
    state.generation = generation;
    live_bytes_ += bytes;
    return common::OkStatus();
  }
  if (kind->AsString() != "warm") {
    return common::DataLossError("unknown entry kind");
  }
  auto it = cohorts_.find(cohort->AsString());
  if (it == cohorts_.end()) {
    return common::DataLossError("warm entry for an unknown cohort");
  }
  CohortState& state = it->second;
  WarmState warm;
  warm.analyzed_generation = generation;
  ADA_ASSIGN_OR_RETURN(warm.analyzed_records,
                       IntField(entry, "analyzed_records"));
  ADA_ASSIGN_OR_RETURN(const int64_t best_k, IntField(entry, "best_k"));
  warm.best_k = static_cast<int32_t>(best_k);
  const Json* exam_types = entry.Find("exam_types");
  const Json* centroids = entry.Find("centroids");
  if (exam_types == nullptr || !exam_types->is_array() ||
      centroids == nullptr || !centroids->is_array() ||
      centroids->AsArray().empty() || !centroids->AsArray()[0].is_array()) {
    return common::DataLossError("malformed warm entry");
  }
  for (const Json& id : exam_types->AsArray()) {
    if (!id.is_int()) return common::DataLossError("malformed warm entry");
    warm.exam_types.push_back(static_cast<int32_t>(id.AsInt()));
  }
  const Json::Array& rows = centroids->AsArray();
  const size_t cols = rows[0].AsArray().size();
  warm.centroids = transform::Matrix(rows.size(), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    if (!rows[r].is_array() || rows[r].AsArray().size() != cols) {
      return common::DataLossError("ragged warm centroids");
    }
    for (size_t c = 0; c < cols; ++c) {
      const Json& cell = rows[r].AsArray()[c];
      if (!cell.is_number()) {
        return common::DataLossError("non-numeric warm centroid");
      }
      warm.centroids.At(r, c) = cell.AsDouble();
    }
  }
  const int64_t analyzed = state.warm ? state.warm->analyzed_generation : 0;
  if (generation <= analyzed || generation > state.generation) {
    return common::DataLossError("warm entry out of generation order");
  }
  InstallWarm(state, std::move(warm), bytes);
  return common::OkStatus();
}

StatusOr<size_t> CohortStore::Commit(std::string_view body) {
  if (log_ == nullptr) {
    // The failpoint governs the commit of an in-memory store too, so
    // tests can exercise the degradation paths without a disk.
    ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.ingest.snapshot"));
    return size_t{0};
  }
  return log_->Append(body);
}

void CohortStore::InstallWarm(CohortState& state, WarmState warm,
                              size_t bytes) {
  dead_bytes_ += state.warm_entry_bytes;
  live_bytes_ += bytes;
  live_bytes_ -= state.warm_entry_bytes;
  state.warm_entry_bytes = bytes;
  state.warm = std::move(warm);
}

std::string CohortStore::WarmEntry(const std::string& cohort,
                                   const WarmState& warm) {
  Json::Object entry;
  entry["kind"] = "warm";
  entry["cohort"] = cohort;
  entry["generation"] = warm.analyzed_generation;
  entry["analyzed_records"] = warm.analyzed_records;
  entry["best_k"] = static_cast<int64_t>(warm.best_k);
  Json::Array exam_types;
  exam_types.reserve(warm.exam_types.size());
  for (int32_t id : warm.exam_types) {
    exam_types.emplace_back(static_cast<int64_t>(id));
  }
  entry["exam_types"] = Json(std::move(exam_types));
  Json::Array rows;
  rows.reserve(warm.centroids.rows());
  for (size_t r = 0; r < warm.centroids.rows(); ++r) {
    Json::Array row;
    row.reserve(warm.centroids.cols());
    for (double value : warm.centroids.Row(r)) row.emplace_back(value);
    rows.emplace_back(std::move(row));
  }
  entry["centroids"] = Json(std::move(rows));
  return Json(std::move(entry)).Dump();
}

void CohortStore::MaybeFold() {
  if (log_ == nullptr || !StoreLog::FoldDue(live_bytes_, dead_bytes_)) return;
  std::string contents;
  std::vector<size_t> warm_bytes;
  for (const auto& [name, state] : cohorts_) {
    contents += EntryLine(IngestEntry(name, state.generation,
                                      RecordsJson(ToRawRecords(state.log))));
    if (!state.warm) {
      warm_bytes.push_back(0);
      continue;
    }
    const std::string line = EntryLine(WarmEntry(name, *state.warm));
    warm_bytes.push_back(line.size());
    contents += line;
  }
  if (!log_->Fold(contents).ok()) return;
  size_t i = 0;
  for (auto& [name, state] : cohorts_) state.warm_entry_bytes = warm_bytes[i++];
  live_bytes_ = contents.size();
  dead_bytes_ = 0;
}

Status CohortStore::status() const {
  common::MutexLock lock(&mutex_);
  return open_status_;
}

StatusOr<IngestResult> CohortStore::Ingest(
    const std::string& cohort, const std::vector<dataset::RawExamRecord>& rows,
    int64_t expected_generation) {
  if (!IsValidCohortName(cohort)) {
    return common::InvalidArgumentError(
        "invalid cohort name (want 1-64 chars of [A-Za-z0-9_-]): '" + cohort +
        "'");
  }
  if (rows.empty()) {
    return common::InvalidArgumentError("empty ingest batch");
  }
  // Validate the whole batch before anything is written: once its entry
  // is durable, applying it to memory cannot fail.
  ADA_RETURN_IF_ERROR(dataset::CheckRawRecords(rows));
  Json records = options_.directory.empty() ? Json() : RecordsJson(rows);

  common::MutexLock lock(&mutex_);
  ADA_RETURN_IF_ERROR(open_status_);
  auto it = cohorts_.find(cohort);
  const int64_t current = it == cohorts_.end() ? 0 : it->second.generation;
  // Replay guard (see the header): a conditional batch commits only
  // against the exact generation the client observed. Checked before
  // any write, so a rejected replay is a pure no-op.
  if (expected_generation >= 0 && current != expected_generation) {
    return common::FailedPreconditionError(common::StrFormat(
        "cohort '%s' is at generation %lld, not the expected %lld "
        "(a retried batch most likely already committed)",
        cohort.c_str(), static_cast<long long>(current),
        static_cast<long long>(expected_generation)));
  }
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.ingest.append"));
  ADA_ASSIGN_OR_RETURN(
      const size_t bytes,
      Commit(log_ == nullptr
                 ? std::string()
                 : IngestEntry(cohort, current + 1, std::move(records))));

  // Durable: apply to memory.
  CohortState& state = it == cohorts_.end() ? cohorts_[cohort] : it->second;
  // invariant: CheckRawRecords passed above, the only way Append fails.
  ADA_CHECK_OK(state.log.Append(rows));
  state.generation = current + 1;
  live_bytes_ += bytes;
  stats_.batches += 1;
  stats_.records += static_cast<int64_t>(rows.size());

  IngestResult result;
  result.generation = state.generation;
  result.batch_records = static_cast<int64_t>(rows.size());
  result.total_records = static_cast<int64_t>(state.log.num_records());
  result.patients = static_cast<int64_t>(state.log.num_patients());
  return result;
}

StatusOr<JobRequest> CohortStore::BuildCohortJob(const std::string& cohort) {
  common::MutexLock lock(&mutex_);
  auto it = cohorts_.find(cohort);
  if (it == cohorts_.end()) {
    return common::NotFoundError("unknown cohort: '" + cohort + "'");
  }
  const CohortState& state = it->second;
  JobRequest request;
  request.log = state.log;
  request.cohort = cohort;
  request.cohort_generation = state.generation;
  request.options.dataset_id = cohort;
  if (!state.warm) return request;

  // Drift gate: when too much of the cohort arrived after the analyzed
  // generation, the prior centroids describe a different population —
  // run cold rather than steer the sweep with a stale hint.
  const int64_t records = static_cast<int64_t>(state.log.num_records());
  const int64_t fresh = records - state.warm->analyzed_records;
  const double drift =
      records > 0 ? static_cast<double>(fresh) / static_cast<double>(records)
                  : 0.0;
  if (drift > kDriftThreshold) {
    stats_.cold_fallbacks += 1;
    return request;
  }
  Status adapted = ADA_FAILPOINT("service.ingest.adapt");
  if (!adapted.ok()) {
    stats_.cold_fallbacks += 1;
    return request;
  }
  request.options.warm.centroids = state.warm->centroids;
  request.options.warm.exam_types = state.warm->exam_types;
  request.options.warm.best_k = state.warm->best_k;
  // candidate_ks is deliberately left untouched: it is hashed in order
  // by SessionOptionsSignature, so reordering it here would give delta
  // and cold submissions of the same snapshot different fingerprints
  // and defeat the cache dedup. The optimizer itself evaluates the
  // hint's K first (keyed off warm_centroids, which is excluded from
  // the signature) so the sweep still seeds from the prior best K.
  stats_.warm_starts += 1;
  return request;
}

void CohortStore::OnAnalysisCommitted(const std::string& cohort,
                                      int64_t generation,
                                      int64_t analyzed_records,
                                      const core::SessionResult& result) {
  if (result.optimizer.candidates.empty() ||
      result.mining_exam_types.empty()) {
    return;  // Degraded session without a usable clustering.
  }
  const cluster::Clustering& best = result.optimizer.best().clustering;
  if (best.centroids.empty()) return;

  common::MutexLock lock(&mutex_);
  auto it = cohorts_.find(cohort);
  if (it == cohorts_.end()) return;
  CohortState& state = it->second;
  // Stale or duplicate notification: only a strictly newer generation
  // may replace the warm state. Re-analyses of an already-analyzed
  // generation are ignored so the stored hint — and therefore every
  // job BuildCohortJob derives from it — stays deterministic until new
  // data actually arrives.
  if (state.warm && generation <= state.warm->analyzed_generation) return;
  if (!AllFinite(best.centroids)) return;  // JSON cannot carry them.

  WarmState warm;
  warm.centroids = best.centroids;
  warm.exam_types = result.mining_exam_types;
  warm.best_k = result.optimizer.best_k();
  warm.analyzed_generation = generation;
  // The caller-supplied count of the analyzed snapshot, NOT the live
  // log's (which may already hold batches ingested after the snapshot
  // and would under-count fresh records at the drift gate).
  warm.analyzed_records = analyzed_records;
  StatusOr<size_t> bytes =
      Commit(log_ == nullptr ? std::string() : WarmEntry(cohort, warm));
  if (!bytes.ok()) {
    // Degrade to cold: an uninstallable warm state is dropped, never
    // half-trusted — the next job re-analyzes from scratch.
    stats_.snapshot_failures += 1;
    ADA_LOG(kWarning) << "cohort '" << cohort
                      << "': warm-state snapshot failed, next job runs cold ("
                      << bytes.status().ToString() << ")";
    return;
  }
  InstallWarm(state, std::move(warm), *bytes);
  MaybeFold();
}

StatusOr<dataset::ExamLog> CohortStore::Snapshot(
    const std::string& cohort) const {
  common::MutexLock lock(&mutex_);
  auto it = cohorts_.find(cohort);
  if (it == cohorts_.end()) {
    return common::NotFoundError("unknown cohort: '" + cohort + "'");
  }
  return it->second.log;
}

CohortStoreStats CohortStore::stats() const {
  common::MutexLock lock(&mutex_);
  CohortStoreStats stats = stats_;
  stats.cohorts = static_cast<int64_t>(cohorts_.size());
  stats.generations = 0;
  for (const auto& [name, state] : cohorts_) {
    stats.generations += state.generation;
  }
  return stats;
}

Json CohortStore::StatsJson() const {
  CohortStoreStats stats = this->stats();
  Json::Object object;
  object["batches"] = stats.batches;
  object["records"] = stats.records;
  object["cohorts"] = stats.cohorts;
  object["generations"] = stats.generations;
  object["warm_starts"] = stats.warm_starts;
  object["cold_fallbacks"] = stats.cold_fallbacks;
  object["snapshot_failures"] = stats.snapshot_failures;
  return Json(std::move(object));
}

}  // namespace service
}  // namespace adahealth
