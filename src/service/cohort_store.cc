#include "service/cohort_store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "kdb/storage.h"

namespace adahealth {
namespace service {

using common::Json;
using common::Status;
using common::StatusOr;

namespace {

constexpr char kRecordsHeader[] = "patient_id,exam_type,day\n";
constexpr char kRecordsSuffix[] = ".records";
constexpr char kManifestSuffix[] = ".manifest.json";
constexpr size_t kMaxCohortName = 64;
/// Warm-start drift gate: when more than this fraction of the cohort's
/// records arrived after the last analyzed generation, the prior
/// centroids are considered stale and the next job runs cold.
constexpr double kDriftThreshold = 0.5;

Json MatrixToJson(const transform::Matrix& matrix) {
  Json::Array rows;
  rows.reserve(matrix.rows());
  for (size_t r = 0; r < matrix.rows(); ++r) {
    Json::Array row;
    row.reserve(matrix.cols());
    for (double value : matrix.Row(r)) row.emplace_back(value);
    rows.emplace_back(std::move(row));
  }
  return Json(std::move(rows));
}

StatusOr<transform::Matrix> MatrixFromJson(const Json& json) {
  if (!json.is_array()) {
    return common::DataLossError("warm centroids: expected an array");
  }
  const Json::Array& rows = json.AsArray();
  if (rows.empty()) return transform::Matrix();
  if (!rows[0].is_array()) {
    return common::DataLossError("warm centroids: expected array rows");
  }
  const size_t cols = rows[0].AsArray().size();
  transform::Matrix matrix(rows.size(), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    if (!rows[r].is_array() || rows[r].AsArray().size() != cols) {
      return common::DataLossError("warm centroids: ragged rows");
    }
    const Json::Array& row = rows[r].AsArray();
    for (size_t c = 0; c < cols; ++c) {
      if (!row[c].is_number()) {
        return common::DataLossError("warm centroids: non-numeric cell");
      }
      matrix.At(r, c) = row[c].AsDouble();
    }
  }
  return matrix;
}

int64_t ReadInt(const Json& object, std::string_view key, int64_t fallback) {
  const Json* field = object.Find(key);
  if (field == nullptr || !field->is_number()) return fallback;
  return field->is_int() ? field->AsInt()
                         : static_cast<int64_t>(field->AsDouble());
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
  ::mkdir(options_.directory.c_str(), 0755);  // Best-effort; may exist.

  // Discover persisted cohorts by their manifests. Salvage semantics:
  // a cohort that fails to load is skipped with a warning — the store
  // still starts, serving every cohort that does parse.
  std::vector<std::string> names;
  DIR* dir = ::opendir(options_.directory.c_str());
  if (dir == nullptr) {
    ADA_LOG(kWarning) << "cohort store: cannot list directory "
                      << options_.directory;
    return;
  }
  while (dirent* entry = ::readdir(dir)) {
    std::string_view file_name = entry->d_name;
    if (file_name.size() <= std::string_view(kManifestSuffix).size()) continue;
    if (!file_name.ends_with(kManifestSuffix)) continue;
    file_name.remove_suffix(std::string_view(kManifestSuffix).size());
    if (IsValidCohortName(file_name)) names.emplace_back(file_name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());

  common::MutexLock lock(&mutex_);
  for (const std::string& name : names) {
    Status loaded = LoadCohort(name);
    if (!loaded.ok()) {
      ADA_LOG(kWarning) << "cohort store: skipping cohort '" << name
                        << "': " << loaded.ToString();
    }
  }
}

std::string CohortStore::RecordsPath(const std::string& cohort) const {
  return options_.directory + "/" + cohort + kRecordsSuffix;
}

std::string CohortStore::ManifestPath(const std::string& cohort) const {
  return options_.directory + "/" + cohort + kManifestSuffix;
}

Json CohortStore::ManifestJson(const std::string& cohort,
                               const CohortState& state) const {
  Json::Object doc;
  doc["cohort"] = cohort;
  doc["generation"] = state.generation;
  doc["committed_bytes"] = static_cast<int64_t>(state.committed_bytes);
  doc["records"] = static_cast<int64_t>(state.log.num_records());
  doc["patients"] = static_cast<int64_t>(state.log.num_patients());
  Json::Object marginals;
  for (const auto& [exam, count] : state.exam_marginals) {
    marginals[exam] = count;
  }
  doc["exam_marginals"] = Json(std::move(marginals));
  doc["distinct_pairs"] = static_cast<int64_t>(state.distinct_pairs.size());
  if (state.has_warm) {
    Json::Object warm;
    warm["analyzed_generation"] = state.analyzed_generation;
    warm["analyzed_records"] = state.analyzed_records;
    warm["best_k"] = static_cast<int64_t>(state.warm_best_k);
    Json::Array exam_types;
    exam_types.reserve(state.warm_exam_types.size());
    for (int32_t id : state.warm_exam_types) {
      exam_types.emplace_back(static_cast<int64_t>(id));
    }
    warm["exam_types"] = Json(std::move(exam_types));
    warm["centroids"] = MatrixToJson(state.warm_centroids);
    doc["warm"] = Json(std::move(warm));
  }
  return Json(std::move(doc));
}

Status CohortStore::WriteManifest(const std::string& cohort,
                                  const CohortState& state) {
  // The failpoint governs the commit of an in-memory store too, so
  // tests can exercise the degradation paths without a disk.
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.ingest.snapshot"));
  if (options_.directory.empty()) return common::OkStatus();
  return kdb::AtomicWriteFile(ManifestPath(cohort),
                              ManifestJson(cohort, state).Pretty() + "\n");
}

Status CohortStore::AppendRecordsFile(const std::string& cohort,
                                      const CohortState& state,
                                      const std::string& payload) {
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.ingest.append"));
  if (options_.directory.empty()) return common::OkStatus();
  const std::string path = RecordsPath(cohort);
  // Clear any uncommitted residue from a previous torn append before
  // extending the committed prefix (the loader never read it; this
  // keeps the on-disk bytes equal to committed ones after we succeed).
  // A cohort with nothing committed yet ("wb") covers the first-batch
  // crash window — a records file left behind without a manifest —
  // where truncate-to-committed_bytes would need a file that may not
  // exist; with a committed prefix ("ab") the file must exist, so a
  // failed truncate is a real error.
  if (state.committed_bytes > 0 &&
      ::truncate(path.c_str(), static_cast<off_t>(state.committed_bytes)) !=
          0) {
    return common::UnavailableError("cannot truncate records file: " + path);
  }
  std::FILE* file =
      std::fopen(path.c_str(), state.committed_bytes > 0 ? "ab" : "wb");
  if (file == nullptr) {
    return common::UnavailableError("cannot open records file: " + path);
  }
  size_t written = std::fwrite(payload.data(), 1, payload.size(), file);
  if (written != payload.size() || std::fflush(file) != 0) {
    std::fclose(file);
    return common::DataLossError("write error on records file: " + path);
  }
  if (::fsync(::fileno(file)) != 0) {
    std::fclose(file);
    return common::DataLossError("fsync failed on records file: " + path);
  }
  if (std::fclose(file) != 0) {
    return common::DataLossError("close failed on records file: " + path);
  }
  return common::OkStatus();
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
  for (const dataset::RawExamRecord& row : rows) {
    if (row.patient < 0) {
      return common::InvalidArgumentError("negative patient id in batch");
    }
    if (row.exam_type.empty()) {
      return common::InvalidArgumentError("empty exam-type name in batch");
    }
  }

  // Render the batch once, outside any I/O: the same RFC-4180 fields
  // ExamLog::ToCsv writes, so the accumulated file parses via FromCsv.
  std::vector<std::vector<std::string>> csv_rows;
  csv_rows.reserve(rows.size());
  for (const dataset::RawExamRecord& row : rows) {
    csv_rows.push_back({std::to_string(row.patient), row.exam_type,
                        std::to_string(row.day)});
  }

  common::MutexLock lock(&mutex_);
  const bool is_new = cohorts_.find(cohort) == cohorts_.end();
  // Replay guard (see the header): a conditional batch commits only
  // against the exact generation the client observed. Checked before
  // any mutation, so a rejected replay is a pure no-op.
  if (expected_generation >= 0) {
    const int64_t current =
        is_new ? 0 : cohorts_.find(cohort)->second.generation;
    if (current != expected_generation) {
      return common::FailedPreconditionError(common::StrFormat(
          "cohort '%s' is at generation %lld, not the expected %lld "
          "(a retried batch most likely already committed)",
          cohort.c_str(), static_cast<long long>(current),
          static_cast<long long>(expected_generation)));
    }
  }
  CohortState& state = cohorts_[cohort];
  auto discard_new = [&] {
    if (is_new) cohorts_.erase(cohort);
  };

  std::string payload = is_new ? std::string(kRecordsHeader) : std::string();
  payload += common::WriteCsv(csv_rows);

  // Step 1: extend the records file (its committed prefix is untouched
  // on failure, so the prior generation stays readable).
  Status appended = AppendRecordsFile(cohort, state, payload);
  if (!appended.ok()) {
    discard_new();
    return appended;
  }

  // Step 2: apply to memory, keeping a rollback copy.
  CohortState backup = state;
  Status applied = state.log.Append(rows);
  if (!applied.ok()) {
    // Unreachable after the validation above, but keep the rollback
    // airtight anyway.
    state = std::move(backup);
    discard_new();
    return applied;
  }
  for (const dataset::RawExamRecord& row : rows) {
    ++state.exam_marginals[row.exam_type];
  }
  // The batch's records are the log's tail; read their interned ids
  // back for the density pair set.
  const auto& records = state.log.records();
  for (size_t i = records.size() - rows.size(); i < records.size(); ++i) {
    state.distinct_pairs.emplace(records[i].patient, records[i].exam_type);
  }
  state.generation += 1;
  state.committed_bytes += payload.size();

  // Step 3: commit the manifest. On failure, restore memory and the
  // file to the previous generation (all-or-nothing ingest).
  Status committed = WriteManifest(cohort, state);
  if (!committed.ok()) {
    if (!options_.directory.empty()) {
      if (::truncate(RecordsPath(cohort).c_str(),
                     static_cast<off_t>(backup.committed_bytes)) != 0) {
        // The stale tail past committed_bytes is harmless: the loader
        // reads only the committed prefix and the next append truncates.
        ADA_LOG(kWarning) << "cohort '" << cohort
                          << "': could not roll back records file";
      }
    }
    state = std::move(backup);
    discard_new();
    return committed;
  }

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
  if (!state.has_warm) return request;

  // Drift gate: when too much of the cohort arrived after the analyzed
  // generation, the prior centroids describe a different population —
  // run cold rather than steer the sweep with a stale hint.
  const int64_t records = static_cast<int64_t>(state.log.num_records());
  const int64_t fresh = records - state.analyzed_records;
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
  request.options.warm.centroids = state.warm_centroids;
  request.options.warm.exam_types = state.warm_exam_types;
  request.options.warm.best_k = state.warm_best_k;
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
  if (generation <= state.analyzed_generation) return;

  CohortState candidate = state;
  candidate.has_warm = true;
  candidate.warm_centroids = best.centroids;
  candidate.warm_exam_types = result.mining_exam_types;
  candidate.warm_best_k = result.optimizer.best_k();
  candidate.analyzed_generation = generation;
  // The caller-supplied count of the analyzed snapshot, NOT the live
  // log's (which may already hold batches ingested after the snapshot
  // and would under-count fresh records at the drift gate).
  candidate.analyzed_records = analyzed_records;

  Status persisted = WriteManifest(cohort, candidate);
  if (!persisted.ok()) {
    // Degrade to cold: an uninstallable warm state is dropped, never
    // half-trusted — the next job re-analyzes from scratch.
    stats_.snapshot_failures += 1;
    ADA_LOG(kWarning) << "cohort '" << cohort
                      << "': warm-state snapshot failed, next job runs cold ("
                      << persisted.ToString() << ")";
    return;
  }
  state = std::move(candidate);
}

StatusOr<CohortDescriptors> CohortStore::Descriptors(
    const std::string& cohort) const {
  common::MutexLock lock(&mutex_);
  auto it = cohorts_.find(cohort);
  if (it == cohorts_.end()) {
    return common::NotFoundError("unknown cohort: '" + cohort + "'");
  }
  const CohortState& state = it->second;
  CohortDescriptors descriptors;
  descriptors.generation = state.generation;
  descriptors.records = static_cast<int64_t>(state.log.num_records());
  descriptors.patients = static_cast<int64_t>(state.log.num_patients());
  descriptors.exam_types = static_cast<int64_t>(state.log.num_exam_types());
  const double cells = static_cast<double>(descriptors.patients) *
                       static_cast<double>(descriptors.exam_types);
  descriptors.density =
      cells > 0 ? static_cast<double>(state.distinct_pairs.size()) / cells
                : 0.0;
  descriptors.mean_records_per_patient =
      descriptors.patients > 0
          ? static_cast<double>(descriptors.records) /
                static_cast<double>(descriptors.patients)
          : 0.0;
  descriptors.exam_marginals = state.exam_marginals;
  return descriptors;
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

size_t CohortStore::num_cohorts() const {
  common::MutexLock lock(&mutex_);
  return cohorts_.size();
}

Status CohortStore::LoadCohort(const std::string& cohort) {
  auto manifest_text = common::ReadFileToString(ManifestPath(cohort));
  if (!manifest_text.ok()) return manifest_text.status();
  auto manifest = Json::Parse(manifest_text.value());
  if (!manifest.ok()) {
    return common::DataLossError("manifest parse error: " +
                                 manifest.status().message());
  }
  const int64_t generation = ReadInt(*manifest, "generation", 0);
  const int64_t committed_bytes = ReadInt(*manifest, "committed_bytes", 0);
  if (generation <= 0 || committed_bytes < 0) {
    return common::DataLossError("manifest has no committed generation");
  }

  auto records_text = common::ReadFileToString(RecordsPath(cohort));
  if (!records_text.ok()) return records_text.status();
  if (records_text->size() < static_cast<size_t>(committed_bytes)) {
    return common::DataLossError(
        "records file shorter than the committed prefix");
  }
  // The salvage step: only the committed prefix is parsed; bytes past
  // it are a torn append from a crash between append and snapshot and
  // are dropped (the prior generation stays readable).
  const size_t total_bytes = records_text->size();
  records_text->resize(static_cast<size_t>(committed_bytes));
  auto log = dataset::ExamLog::FromCsv(records_text.value());
  if (!log.ok()) {
    return common::DataLossError("committed records prefix unreadable: " +
                                 log.status().message());
  }
  if (total_bytes > static_cast<size_t>(committed_bytes)) {
    ADA_LOG(kWarning) << "cohort '" << cohort << "': dropped "
                      << (total_bytes - static_cast<size_t>(committed_bytes))
                      << " uncommitted byte(s) past generation " << generation;
  }

  CohortState state;
  state.generation = generation;
  state.log = std::move(log).value();
  state.committed_bytes = static_cast<size_t>(committed_bytes);
  // Rebuild the incremental descriptors from the restored log (load is
  // the one place a full pass is inherent — the log itself is re-read).
  for (const dataset::ExamRecord& record : state.log.records()) {
    ++state.exam_marginals[std::string(
        state.log.dictionary().Name(record.exam_type))];
    state.distinct_pairs.emplace(record.patient, record.exam_type);
  }

  if (const Json* warm = manifest->Find("warm"); warm != nullptr) {
    const Json* centroids = warm->Find("centroids");
    const Json* exam_types = warm->Find("exam_types");
    if (centroids != nullptr && exam_types != nullptr &&
        exam_types->is_array()) {
      auto matrix = MatrixFromJson(*centroids);
      if (matrix.ok() && !matrix->empty()) {
        state.has_warm = true;
        state.warm_centroids = std::move(matrix).value();
        for (const Json& id : exam_types->AsArray()) {
          if (id.is_number()) {
            state.warm_exam_types.push_back(
                static_cast<int32_t>(id.AsInt()));
          }
        }
        state.warm_best_k =
            static_cast<int32_t>(ReadInt(*warm, "best_k", 0));
        state.analyzed_generation = ReadInt(*warm, "analyzed_generation", 0);
        state.analyzed_records = ReadInt(*warm, "analyzed_records", 0);
      } else if (!matrix.ok()) {
        // A corrupt warm block only costs a cold re-analysis.
        ADA_LOG(kWarning) << "cohort '" << cohort
                          << "': dropping corrupt warm state ("
                          << matrix.status().ToString() << ")";
      }
    }
  }

  cohorts_[cohort] = std::move(state);
  return common::OkStatus();
}

}  // namespace service
}  // namespace adahealth
