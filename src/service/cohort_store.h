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
// Persistence (when a directory is configured) is one append-only
// **store log** per directory (`cohort_store.log`, a StoreLog:
// service/store_log.h), shared by every cohort in it. An `ingest` entry
// carries a cohort, the generation it commits and the batch's records;
// a `warm` entry carries one analysis's warm state. Each is one
// checksummed entry, written in one pwrite and made durable with one
// fdatasync before it is applied: a batch is fully committed or never
// happened. A malformed entry before the last newline is corruption,
// and the store refuses to open (status()).
//
// Superseded warm entries are dead bytes. When the store log's fold
// rule says so, the store folds the log: one rewrite of the live state
// (one ingest entry per cohort carrying its whole log, then its warm
// entry). DESIGN.md §13 has the measurements behind this layout.
//
// The store keeps no §2.1 characterization of its own: a cohort job's
// session characterizes the snapshot it analyzes
// (stats::ComputeMetaFeatures), and an ingest reports only counts
// (IngestResult).
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
// Failpoints: "service.ingest.append" (before an ingest entry is
// written), "service.ingest.snapshot" (between an entry's body and its
// committing newline, for ingest and warm entries alike; a failed warm
// entry drops the warm state, degrading the next job to a cold run),
// and "service.ingest.adapt" (warm-hint attachment; a failure falls
// back to cold).
#ifndef ADAHEALTH_SERVICE_COHORT_STORE_H_
#define ADAHEALTH_SERVICE_COHORT_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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

class StoreLog;

struct CohortStoreOptions {
  /// Directory holding the store log. Empty = pure in-memory store
  /// (tests, demos): nothing survives the process, but every other
  /// contract holds.
  std::string directory;
};

/// File name of the store log inside CohortStoreOptions::directory.
inline constexpr char kStoreLogFile[] = "cohort_store.log";

/// What one committed ingest batch did.
struct IngestResult {
  int64_t generation = 0;     // Generation the batch committed as.
  int64_t batch_records = 0;  // Records in this batch.
  int64_t total_records = 0;  // Accumulated records after the batch.
  int64_t patients = 0;       // Accumulated distinct-patient count.
};

/// Exact per-store ingest counters (the `stats`/`health` "ingest"
/// object).
struct CohortStoreStats {
  /// Batches and records the store holds, replayed ones included.
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
  /// Replays the store log in options.directory. A store that cannot
  /// open reports why through status() and commits nothing.
  explicit CohortStore(CohortStoreOptions options);
  ~CohortStore();

  CohortStore(const CohortStore&) = delete;
  CohortStore& operator=(const CohortStore&) = delete;

  /// OK once the store log replayed. FAILED_PRECONDITION naming a file
  /// when the directory holds the old per-cohort layout
  /// (`*.manifest.json`/`*.records`), which this store does not read;
  /// DATA_LOSS when a committed entry is malformed. The server refuses
  /// to start on either.
  [[nodiscard]] common::Status status() const ADA_EXCLUDES(mutex_);

  /// Appends one batch to `cohort` (creating it on first use) and
  /// advances its generation. The batch is validated whole, then its
  /// entry is made durable, and only then applied to memory, so on any
  /// failure — validation, an injected "service.ingest.append"/
  /// ".snapshot" fault, or real I/O — the cohort's previous generation
  /// stays intact in memory and on disk. INVALID_ARGUMENT for a
  /// malformed cohort name, an empty batch, or invalid records.
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
  /// state, appended to the store log. `analyzed_records` is the
  /// record count of the snapshot that was analyzed (the job's log,
  /// NOT the cohort's live log, which may already hold batches that
  /// arrived after the snapshot) — it is what the drift gate measures
  /// fresh records against. A failed append (the
  /// "service.ingest.snapshot" failpoint or real I/O) drops the new
  /// warm state instead of installing it — the next job degrades to a
  /// cold run, never a wrong answer. Centroids that JSON cannot carry
  /// (NaN, infinity) are dropped the same way. Stale and duplicate
  /// notifications (a
  /// generation no newer than one already analyzed) are ignored, so
  /// re-analyses of the same generation cannot perturb the stored
  /// hint. Wired to SchedulerOptions::on_session_success by the
  /// server.
  void OnAnalysisCommitted(const std::string& cohort, int64_t generation,
                           int64_t analyzed_records,
                           const core::SessionResult& result)
      ADA_EXCLUDES(mutex_);

  /// Copy of the accumulated log (what a cohort job would analyze);
  /// NOT_FOUND for unknown cohorts.
  // ada-lint: allow(unreached-symbol) cohort_store_test and
  // fault_injection_test read the committed log through it.
  [[nodiscard]] common::StatusOr<dataset::ExamLog> Snapshot(
      const std::string& cohort) const ADA_EXCLUDES(mutex_);

  [[nodiscard]] CohortStoreStats stats() const ADA_EXCLUDES(mutex_);
  /// The stats as the JSON object embedded in `stats`/`health`.
  [[nodiscard]] common::Json StatsJson() const ADA_EXCLUDES(mutex_);

  const CohortStoreOptions& options() const { return options_; }

 private:
  /// Warm-start state from the last committed analysis.
  struct WarmState {
    transform::Matrix centroids;
    std::vector<int32_t> exam_types;
    int32_t best_k = 0;
    int64_t analyzed_generation = 0;
    /// Record count of the analyzed snapshot itself (not of the live
    /// log at notification time): the drift gate's baseline.
    int64_t analyzed_records = 0;
  };

  struct CohortState {
    int64_t generation = 0;
    dataset::ExamLog log;
    std::optional<WarmState> warm;
    /// Log bytes of the entry `warm` came from: dead once superseded.
    size_t warm_entry_bytes = 0;
  };

  /// Replays the store log into memory (constructor path).
  [[nodiscard]] common::Status Open() ADA_REQUIRES(mutex_);
  /// Applies one replayed entry of `bytes` log bytes; any error is
  /// corruption.
  [[nodiscard]] common::Status ApplyEntry(const common::Json& entry,
                                          size_t bytes) ADA_REQUIRES(mutex_);
  /// Makes `body` a durable log entry and returns its size in bytes
  /// (0 for an in-memory store, where only the failpoint runs).
  [[nodiscard]] common::StatusOr<size_t> Commit(std::string_view body)
      ADA_REQUIRES(mutex_);
  void InstallWarm(CohortState& state, WarmState warm, size_t bytes)
      ADA_REQUIRES(mutex_);
  /// The body of a warm entry for `cohort`.
  [[nodiscard]] static std::string WarmEntry(const std::string& cohort,
                                             const WarmState& warm);
  /// Rewrites the log from memory when StoreLog::FoldDue. A failure
  /// only leaves the log long.
  void MaybeFold() ADA_REQUIRES(mutex_);

  const CohortStoreOptions options_;

  mutable common::Mutex mutex_;
  common::Status open_status_ ADA_GUARDED_BY(mutex_);
  /// Null for an in-memory store or one that failed to open.
  std::unique_ptr<StoreLog> log_ ADA_GUARDED_BY(mutex_);
  /// Bytes of live entries and of superseded warm entries in the log.
  size_t live_bytes_ ADA_GUARDED_BY(mutex_) = 0;
  size_t dead_bytes_ ADA_GUARDED_BY(mutex_) = 0;
  std::map<std::string, CohortState> cohorts_ ADA_GUARDED_BY(mutex_);
  CohortStoreStats stats_ ADA_GUARDED_BY(mutex_);
};

/// True when `name` is a filesystem- and protocol-safe cohort name:
/// 1-64 chars from [A-Za-z0-9_-].
[[nodiscard]] bool IsValidCohortName(std::string_view name);

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_COHORT_STORE_H_
