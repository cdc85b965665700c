// Streaming cohort store: the ingestion half of the analysis service.
//
// A cohort is a named, append-only examination log that grows one
// `ingest` batch at a time. Every committed batch advances the
// cohort's **generation**; an analyze-on-cohort job snapshots the log
// at its current generation and the scheduler versions its dataset
// fingerprint as `<cohort>@<generation>/<hash>`, so the result cache
// always serves the latest consistent snapshot and supersedes older
// generations (service/result_cache.h).
//
// Persistence (when a directory is configured) follows the K-DB
// crash-safety discipline with a two-file layout per cohort:
//  * `<name>.records` — the raw records CSV, appended in arrival
//    order and fsync'd per batch;
//  * `<name>.manifest.json` — everything else (generation, the byte
//    count of the valid records prefix, the incrementally maintained
//    descriptors, and the warm-start state), rewritten atomically
//    (tmp + fsync + rename + directory fsync) after the records hit
//    disk.
// A crash between the append and the manifest rename leaves stale
// bytes past `committed_bytes` that the loader never reads and the
// next append truncates away: the prior generation stays readable, a
// batch is either fully committed or never happened.
//
// Descriptors (the paper's §2.1 characterization: counts, per-exam
// marginals, matrix density) are maintained incrementally per batch —
// never recomputed from the accumulated log on the ingest path — and
// cross-checked against a full recompute by the tests.
//
// Delta re-analysis: after a cohort job succeeds, OnAnalysisCommitted
// persists the selected centroids, the exam types their columns mean,
// and the best K. The next BuildCohortJob attaches them as a
// SessionOptions warm hint unless the cohort drifted too far since
// the analyzed generation (more than half of its records arrived
// since), in which case the job runs cold. The hint is identity-gated inside the session (see
// core::WarmStartOptions): it can speed the sweep up but never
// changes what a cold run on the same data would report.
//
// Failpoints: "service.ingest.append" (records append),
// "service.ingest.snapshot" (manifest write — both the per-batch one
// and the post-analysis warm-state one; a failed warm snapshot drops
// the warm state, degrading the next job to a cold run), and
// "service.ingest.adapt" (warm-hint attachment; a failure falls back
// to cold).
#ifndef ADAHEALTH_SERVICE_COHORT_STORE_H_
#define ADAHEALTH_SERVICE_COHORT_STORE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/sync.h"
#include "dataset/exam_log.h"
#include "service/scheduler.h"
#include "transform/matrix.h"

namespace adahealth {
namespace service {

struct CohortStoreOptions {
  /// Directory for the per-cohort records/manifest files. Empty = pure
  /// in-memory store (tests, demos): nothing survives the process, but
  /// every other contract holds.
  std::string directory;
};

/// What one committed ingest batch did.
struct IngestResult {
  int64_t generation = 0;     // Generation the batch committed as.
  int64_t batch_records = 0;  // Records in this batch.
  int64_t total_records = 0;  // Accumulated records after the batch.
  int64_t patients = 0;       // Accumulated distinct-patient count.
};

/// Point-in-time copy of one cohort's incrementally maintained §2.1
/// descriptors.
struct CohortDescriptors {
  int64_t generation = 0;
  int64_t records = 0;
  int64_t patients = 0;
  int64_t exam_types = 0;
  /// Non-zero fraction of the patient x exam-type count matrix.
  double density = 0.0;
  double mean_records_per_patient = 0.0;
  /// Per-exam record counts (the marginals), keyed by exam name.
  std::map<std::string, int64_t> exam_marginals;
};

/// Exact per-store ingest counters (the `stats`/`health` "ingest"
/// object).
struct CohortStoreStats {
  int64_t batches = 0;
  int64_t records = 0;
  int64_t cohorts = 0;
  int64_t generations = 0;  // Sum of current generations over cohorts.
  int64_t warm_starts = 0;
  int64_t cold_fallbacks = 0;
  int64_t snapshot_failures = 0;
};

/// Thread-safe named-cohort store. All methods are safe to call
/// concurrently; each batch commits atomically under one lock scope.
class CohortStore {
 public:
  /// Restores every persisted cohort from options.directory (salvage
  /// semantics: a cohort whose manifest or committed records prefix
  /// cannot be parsed is skipped with a logged warning, never a
  /// constructor failure).
  explicit CohortStore(CohortStoreOptions options);

  CohortStore(const CohortStore&) = delete;
  CohortStore& operator=(const CohortStore&) = delete;

  /// Appends one batch to `cohort` (creating it on first use) and
  /// advances its generation. All-or-nothing: on any failure —
  /// validation, an injected "service.ingest.append"/".snapshot"
  /// fault, or real I/O — the cohort's previous generation stays
  /// intact in memory and on disk. INVALID_ARGUMENT for a malformed
  /// cohort name, an empty batch, or invalid records.
  ///
  /// `expected_generation` is the client's replay guard: when >= 0 the
  /// batch commits only if the cohort is currently at exactly that
  /// generation (0 for a cohort that does not exist yet); otherwise
  /// FAILED_PRECONDITION, nothing applied. A client that resends a
  /// batch after a lost ack thus cannot double-apply it: the original
  /// commit advanced the generation, so the replay is rejected and the
  /// mismatch tells the client the first attempt (or a concurrent
  /// writer) already landed. -1 = unconditional append.
  [[nodiscard]] common::StatusOr<IngestResult> Ingest(
      const std::string& cohort,
      const std::vector<dataset::RawExamRecord>& rows,
      int64_t expected_generation = -1) ADA_EXCLUDES(mutex_);

  /// Builds an analyze job over the cohort's current snapshot: the
  /// accumulated log, the versioning fields (JobRequest::cohort /
  /// cohort_generation), dataset_id defaulted to the cohort name, and
  /// — when warm state exists, the drift gate passes and
  /// "service.ingest.adapt" does not fire — the warm-start hint.
  /// NOT_FOUND for an unknown cohort.
  [[nodiscard]] common::StatusOr<JobRequest> BuildCohortJob(
      const std::string& cohort) ADA_EXCLUDES(mutex_);

  /// Records a successful analysis of `cohort` at `generation`: the
  /// selected centroids + exam types + best K become the next warm
  /// state, persisted into the manifest. `analyzed_records` is the
  /// record count of the snapshot that was analyzed (the job's log,
  /// NOT the cohort's live log, which may already hold batches that
  /// arrived after the snapshot) — it is what the drift gate measures
  /// fresh records against. A failed persist (the
  /// "service.ingest.snapshot" failpoint or real I/O) drops the warm
  /// state instead of installing it — the next job degrades to a cold
  /// run, never a wrong answer. Stale and duplicate notifications (a
  /// generation no newer than one already analyzed) are ignored, so
  /// re-analyses of the same generation cannot perturb the stored
  /// hint. Wired to SchedulerOptions::on_session_success by the
  /// server.
  void OnAnalysisCommitted(const std::string& cohort, int64_t generation,
                           int64_t analyzed_records,
                           const core::SessionResult& result)
      ADA_EXCLUDES(mutex_);

  /// Descriptor snapshot; NOT_FOUND for unknown cohorts.
  [[nodiscard]] common::StatusOr<CohortDescriptors> Descriptors(
      const std::string& cohort) const ADA_EXCLUDES(mutex_);

  /// Copy of the accumulated log (what a cohort job would analyze);
  /// NOT_FOUND for unknown cohorts.
  [[nodiscard]] common::StatusOr<dataset::ExamLog> Snapshot(
      const std::string& cohort) const ADA_EXCLUDES(mutex_);

  [[nodiscard]] CohortStoreStats stats() const ADA_EXCLUDES(mutex_);
  /// The stats as the JSON object embedded in `stats`/`health`.
  [[nodiscard]] common::Json StatsJson() const ADA_EXCLUDES(mutex_);

  [[nodiscard]] size_t num_cohorts() const ADA_EXCLUDES(mutex_);
  const CohortStoreOptions& options() const { return options_; }

 private:
  struct CohortState {
    int64_t generation = 0;
    dataset::ExamLog log;
    /// Bytes of the records file covered by the last durable manifest.
    size_t committed_bytes = 0;
    /// Incremental descriptors (see CohortDescriptors).
    std::map<std::string, int64_t> exam_marginals;
    std::set<std::pair<int32_t, int32_t>> distinct_pairs;
    /// Warm-start state from the last committed analysis.
    bool has_warm = false;
    transform::Matrix warm_centroids;
    std::vector<int32_t> warm_exam_types;
    int32_t warm_best_k = 0;
    int64_t analyzed_generation = 0;
    /// Record count of the analyzed snapshot itself (not of the live
    /// log at notification time): the drift gate's baseline.
    int64_t analyzed_records = 0;
  };

  [[nodiscard]] std::string RecordsPath(const std::string& cohort) const;
  [[nodiscard]] std::string ManifestPath(const std::string& cohort) const;
  /// Appends `payload` to the cohort's records file after truncating
  /// any uncommitted residue past state.committed_bytes, then fsyncs.
  [[nodiscard]] common::Status AppendRecordsFile(const std::string& cohort,
                                                 const CohortState& state,
                                                 const std::string& payload);
  /// Atomically rewrites the cohort's manifest from `state`
  /// (tmp + fsync + rename + dir fsync; "service.ingest.snapshot").
  [[nodiscard]] common::Status WriteManifest(const std::string& cohort,
                                             const CohortState& state);
  [[nodiscard]] common::Json ManifestJson(const std::string& cohort,
                                          const CohortState& state) const;
  /// Loads one persisted cohort (constructor path).
  [[nodiscard]] common::Status LoadCohort(const std::string& cohort)
      ADA_REQUIRES(mutex_);

  const CohortStoreOptions options_;

  mutable common::Mutex mutex_;
  std::map<std::string, CohortState> cohorts_ ADA_GUARDED_BY(mutex_);
  CohortStoreStats stats_ ADA_GUARDED_BY(mutex_);
};

/// True when `name` is a filesystem- and protocol-safe cohort name:
/// 1-64 chars from [A-Za-z0-9_-].
[[nodiscard]] bool IsValidCohortName(std::string_view name);

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_COHORT_STORE_H_
