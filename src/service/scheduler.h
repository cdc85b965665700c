// Concurrent analysis-job scheduler: the service layer that turns
// AnalysisSession into a long-running multi-tenant engine.
//
// Three cooperating pieces:
//  * a bounded admission queue with per-job priorities and deadlines —
//    submissions beyond the queue bound are shed with
//    RESOURCE_EXHAUSTED, and queued jobs whose deadline passes before a
//    worker picks them up are shed with DEADLINE_EXCEEDED;
//  * N worker sessions multiplexed onto ThreadPool::Shared(): workers
//    are pool tasks (not dedicated threads), so concurrent
//    AnalysisSession::Run calls share the parallel k-means backend
//    with the row-level parallelism instead of oversubscribing cores.
//    A worker task drains jobs until the queue is empty, then retires;
//    submissions spawn workers back up to the configured ceiling;
//  * the fingerprint result cache (service/result_cache.h) — the unit
//    of work is the fully automated session (no per-request tuning),
//    so a fingerprint match serves the stored report with no second
//    execution. It is consulted at admission, where a hit is admitted
//    already done (no queue slot, no worker), and again before every
//    session run, for twins queued before the first one finished.
//
// Determinism: a job produces a byte-identical session report to a
// direct AnalysisSession::Run with the same log and options, also when
// many jobs run concurrently (the PR-4 engines are thread-count
// independent and each job gets a private K-DB instance).
//
// Failpoints: "service.admission" (Submit), "service.worker.session"
// (evaluated once per job before the session runs).
#ifndef ADAHEALTH_SERVICE_SCHEDULER_H_
#define ADAHEALTH_SERVICE_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/session.h"
#include "dataset/exam_log.h"
#include "dataset/taxonomy.h"
#include "service/result_cache.h"

namespace adahealth {
namespace service {

using JobId = int64_t;

/// Retention bound shared by the scheduler's job table and the router's
/// routing table. Once a table holds this many entries, admitting one
/// more first retires the oldest finished entries (oldest completion
/// first); an entry that is queued or running is never retired, so a
/// table holds at most this many entries plus its in-flight jobs. A
/// finished scheduler job keeps its report and summary (a few KB on the
/// paper-scale cohorts) and a finished route keeps a dataset-free
/// re-drive line (a few hundred bytes), so the bound is a few MB per
/// shard and well under 1 MB for the router, independent of uptime.
inline constexpr size_t kRetainedJobs = 1024;

/// NOT_FOUND for an id absent from a table whose ids are issued in
/// sequence below `next_id`: "job N expired" when N was issued (it has
/// been retired), "no job with id N" when it never was.
[[nodiscard]] common::Status JobNotFoundError(JobId id, JobId next_id);

/// The retention rule: erases entries of `table` in `finished` order
/// (ids of terminal entries, oldest completion first) until the table
/// has room for one more entry under kRetainedJobs, or nothing finished
/// is left. Returns how many it retired.
template <typename Table>
int64_t RetireFinished(Table& table, std::deque<JobId>& finished) {
  int64_t retired = 0;
  while (table.size() >= kRetainedJobs && !finished.empty()) {
    retired += static_cast<int64_t>(table.erase(finished.front()));
    finished.pop_front();
  }
  return retired;
}

/// Lifecycle of a scheduled job. Terminal states: kDone, kFailed,
/// kExpired, kCancelled.
enum class JobState {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,       // Session succeeded or the cache served the result.
  kFailed = 3,     // The session returned an error.
  kExpired = 4,    // Deadline passed before a worker started the job.
  kCancelled = 5,  // Cancelled while still queued.
};

/// "queued" / "running" / "done" / "failed" / "expired" / "cancelled".
const char* JobStateName(JobState state);

/// True for the four states a job can never leave.
[[nodiscard]] bool IsTerminal(JobState state);

/// One unit of work: a dataset plus the fully automated session that
/// should analyze it.
struct JobRequest {
  dataset::ExamLog log;
  /// Pattern mining is skipped when absent (mirrors AnalysisSession).
  std::optional<dataset::Taxonomy> taxonomy;
  core::SessionOptions options;
  /// Higher priorities are dequeued first; ties run in submit order.
  int32_t priority = 0;
  /// Relative deadline: the job must *start* within this many
  /// milliseconds of admission or it is shed. <= 0 disables it.
  double deadline_millis = 0.0;
  /// Streaming-cohort versioning (service/cohort_store.h). When
  /// `cohort` is non-empty the scheduler versions the job's dataset
  /// fingerprint as `<cohort>@<generation>/<hash>`, supersedes queued
  /// jobs of the same cohort with older generations, and fires
  /// SchedulerOptions::on_session_success after the result commits.
  std::string cohort;
  int64_t cohort_generation = 0;
};

/// Point-in-time copy of one job's externally visible state.
struct JobSnapshot {
  JobId id = 0;
  JobState state = JobState::kQueued;
  /// OK, or why the job failed / expired / was cancelled.
  common::Status status;
  std::string dataset_id;
  std::string fingerprint;
  int32_t priority = 0;
  /// True when the result was served from the fingerprint cache.
  bool cache_hit = false;
  /// Queue wait (admission -> worker pickup) and session run time.
  double wait_seconds = 0.0;
  double run_seconds = 0.0;
  /// Populated on kDone: the session summary and rendered report.
  std::string summary;
  std::string report;
  int64_t knowledge_items = 0;
};

struct SchedulerOptions {
  /// Concurrent worker sessions (>= 1); each is a ThreadPool::Shared()
  /// task, so the effective parallelism stays bounded by the pool.
  size_t max_workers = 4;
  /// Admission bound on queued (not yet running) jobs.
  size_t max_queue_depth = 64;
  /// Result-cache byte budget.
  size_t cache_bytes = 8 * 1024 * 1024;
  /// When non-empty, the cache is restored from this directory at
  /// construction, persisted (crash-safely) whenever the dirty-entry
  /// threshold is reached, and flushed once more at destruction.
  std::string cache_directory;
  /// Persist once this many inserts have accumulated since the last
  /// successful persist (clamped to >= 1; 1 = persist after every
  /// insert). Each persist is an O(all entries) full rewrite, so
  /// batching keeps a busy scheduler from rewriting the file per job;
  /// the destructor's final flush bounds the loss window to a crash.
  size_t cache_persist_threshold = 8;
  /// Construction-time Pause() (tests: stage jobs deterministically).
  bool start_paused = false;
  /// Fired after a session's artifacts are committed to the result
  /// cache (insert + batched persist), outside the scheduler lock —
  /// the replication hook: a shard primary wires this to its
  /// LogShipper so every committed result streams to the follower.
  /// Runs on the worker thread that finished the job; must not block.
  std::function<void(const CachedAnalysis&)> on_result_committed;
  /// Fired after a session run succeeds and its result is committed to
  /// the cache, outside the scheduler lock, on the worker thread — the
  /// cohort-store hook: the server wires this to
  /// CohortStore::OnAnalysisCommitted so a finished cohort job's
  /// centroids become the next generation's warm-start state. Not fired
  /// for cache hits (no new session ran) or non-cohort jobs.
  std::function<void(const JobRequest&, const core::SessionResult&)>
      on_session_success;
};

/// Monotonic per-scheduler counters, exported by StatsJson — the only
/// place a scheduler event is counted.
struct SchedulerStats {
  int64_t submitted = 0;
  int64_t completed = 0;          // kDone, including cache hits.
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t superseded = 0;         // Stale cohort generations cancelled.
  int64_t expired = 0;            // Deadline shed at dequeue.
  int64_t shed = 0;               // Admission-time rejections.
  int64_t cache_served = 0;       // kDone answered by the cache.
  int64_t sessions_executed = 0;  // Actual AnalysisSession::Run calls.
  int64_t cache_persist_failures = 0;  // Failed cache-file rewrites.
  int64_t cache_persist_skipped = 0;   // Inserts below the threshold.
  int64_t retired = 0;            // Finished jobs dropped by retention.
  size_t retained = 0;            // Jobs in the table right now.
  size_t queue_depth = 0;
  size_t active_workers = 0;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options);
  /// Cancels the queued backlog, waits for running jobs, persists the
  /// cache when a cache_directory is configured.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admits a job; one whose fingerprint is cached is admitted done
  /// (cache_hit) instead of queued. Errors: RESOURCE_EXHAUSTED (queue
  /// full), FAILED_PRECONDITION (scheduler shutting down),
  /// INVALID_ARGUMENT (empty dataset), or an injected
  /// "service.admission" failure — all counted as shed except the
  /// invalid-argument case. A non-empty `expected_fingerprint` (the
  /// router's route_fingerprint) must equal the computed one, else
  /// INTERNAL and nothing is admitted or counted.
  [[nodiscard]] common::StatusOr<JobId> Submit(
      JobRequest request, const std::string& expected_fingerprint = {})
      ADA_EXCLUDES(mutex_);

  /// Admits a job already done from the cache entry of `fingerprint`,
  /// without its dataset: `request` carries only the knobs (dataset_id,
  /// priority, deadline). Returns nullopt, having admitted and counted
  /// nothing, when the fingerprint is not cached; the caller then
  /// builds the dataset and calls Submit. FAILED_PRECONDITION when the
  /// scheduler is shutting down.
  [[nodiscard]] common::StatusOr<std::optional<JobId>> SubmitIfCached(
      const std::string& fingerprint, JobRequest request)
      ADA_EXCLUDES(mutex_);

  /// Snapshot of one job; NOT_FOUND for unknown ids ("job N expired"
  /// once a finished job has been retired, see kRetainedJobs).
  [[nodiscard]] common::StatusOr<JobSnapshot> Status(JobId id) const
      ADA_EXCLUDES(mutex_);

  /// Blocks until the job reaches a terminal state (or
  /// `timeout_millis` elapses -> DEADLINE_EXCEEDED; <= 0 waits
  /// forever). Returns the terminal snapshot, or the "expired"
  /// NOT_FOUND when the job finished and was retired before this waiter
  /// woke.
  [[nodiscard]] common::StatusOr<JobSnapshot> AwaitResult(
      JobId id, double timeout_millis = 0.0) ADA_EXCLUDES(mutex_);

  /// Cancels a queued job. FAILED_PRECONDITION when it is already
  /// running or terminal, NOT_FOUND when unknown.
  [[nodiscard]] common::Status Cancel(JobId id) ADA_EXCLUDES(mutex_);

  using SubscriptionId = int64_t;
  using CompletionCallback = std::function<void(const JobSnapshot&)>;

  /// Registers `callback` to fire exactly once when the job reaches a
  /// terminal state — the event-loop-safe alternative to parking a
  /// thread in AwaitResult. When the job is already terminal the
  /// callback is invoked before Subscribe returns (on the calling
  /// thread) and the sentinel id 0 — never issued for a live
  /// subscription — is returned. NOT_FOUND for unknown jobs.
  ///
  /// Callbacks run on whichever thread finishes the job (a scheduler
  /// worker, or the thread calling Cancel / the destructor), after the
  /// scheduler's internal lock has been released — so a callback may
  /// safely call back into this Scheduler (Status, stats, ...). Long
  /// work should still be handed to an executor (the server posts to
  /// its event loop): the callback runs inside a worker's drain loop
  /// and delays that worker's next job.
  [[nodiscard]] common::StatusOr<SubscriptionId> Subscribe(
      JobId id, CompletionCallback callback) ADA_EXCLUDES(mutex_);

  /// Removes a pending subscription. Returns true when the callback
  /// was cancelled before firing; false when it already fired or is
  /// about to (or the id is unknown/the inline sentinel) — the caller
  /// must then expect the notification to arrive.
  bool Unsubscribe(SubscriptionId id) ADA_EXCLUDES(mutex_);

  /// Stops dispatching queued jobs (running jobs finish). Idempotent.
  void Pause() ADA_EXCLUDES(mutex_);
  /// Resumes dispatching.
  void Resume() ADA_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and every worker has retired.
  /// Resumes a paused scheduler first (a paused drain would deadlock).
  void Drain() ADA_EXCLUDES(mutex_);

  [[nodiscard]] SchedulerStats stats() const ADA_EXCLUDES(mutex_);
  /// Stats plus cache counters as one JSON object (the `stats` verb).
  [[nodiscard]] common::Json StatsJson() const ADA_EXCLUDES(mutex_);

  /// Commits one finished analysis to the result cache: inserts the
  /// entry, persists when the dirty-entry threshold is reached (and a
  /// cache_directory is configured), and — when `fire_hook` — invokes
  /// on_result_committed. Workers call this with fire_hook=true; a
  /// follower applying a replicated entry calls it with false so a
  /// replica chain cannot loop a record back at its own primary.
  void CommitCacheEntry(CachedAnalysis entry, bool fire_hook)
      ADA_EXCLUDES(mutex_);

  ResultCache& cache() { return cache_; }
  const SchedulerOptions& options() const { return options_; }

 private:
  struct Job {
    JobId id = 0;
    JobRequest request;
    std::string fingerprint;
    JobState state = JobState::kQueued;
    common::Status status;
    bool cache_hit = false;
    std::chrono::steady_clock::time_point enqueue_time;
    std::chrono::steady_clock::time_point deadline;  // max() = none.
    bool has_deadline = false;
    double wait_seconds = 0.0;
    double run_seconds = 0.0;
    std::string summary;
    std::string report;
    int64_t knowledge_items = 0;

    [[nodiscard]] JobSnapshot Snapshot() const;
  };

  /// (-priority, id): lowest key = next to run.
  using PendingKey = std::pair<int64_t, JobId>;

  /// A completion callback extracted (and retired) under mutex_ by
  /// FinishJob, to be invoked by the caller once the lock is released.
  struct Notification {
    CompletionCallback callback;
    JobSnapshot snapshot;
  };

  /// Spawns workers up to the ceiling. Returns true when the shared
  /// pool refused a task (process teardown): the caller must release
  /// mutex_ and run DrainLoop() inline so no admitted job is lost.
  [[nodiscard]] bool SpawnWorkersLocked() ADA_REQUIRES(mutex_);
  /// Creates the job, counts it submitted, and either finishes it from
  /// `cached` or queues it. Returns its id.
  JobId AdmitLocked(std::string fingerprint, JobRequest request,
                    std::optional<CachedAnalysis> cached,
                    std::vector<Notification>* notifications)
      ADA_REQUIRES(mutex_);
  /// Finishes `job` as done with the artifacts of a cache hit.
  void ServeCachedLocked(Job& job, CachedAnalysis cached,
                         std::vector<Notification>* notifications)
      ADA_REQUIRES(mutex_);
  void DrainLoop() ADA_EXCLUDES(mutex_);
  void RunJob(Job& job) ADA_EXCLUDES(mutex_);
  /// Moves the job to a terminal state and appends its subscriptions
  /// to `notifications` instead of firing them — callbacks run outside
  /// the lock (see Subscribe), so every caller drains the vector with
  /// FireNotifications after unlocking.
  void FinishJob(Job& job, JobState state, common::Status status,
                 std::vector<Notification>* notifications)
      ADA_REQUIRES(mutex_);
  void FireNotifications(std::vector<Notification>& notifications)
      ADA_EXCLUDES(mutex_);

  const SchedulerOptions options_;
  ResultCache cache_;

  mutable common::Mutex mutex_;
  common::CondVar state_changed_;  // Terminal transitions.
  common::CondVar workers_idle_;   // Worker retirement.
  /// Jobs are created at admission; FinishJob releases a job's dataset
  /// (request.log and request.taxonomy) and queues its id in finished_,
  /// and admission retires finished jobs past kRetainedJobs. The map
  /// itself is guarded; a kRunning job body is owned by the worker that
  /// dequeued it, which reads the admission-time-immutable fields
  /// (request, fingerprint) without the lock and re-acquires mutex_ for
  /// every mutation. Everyone else observes jobs via Snapshot() under
  /// the lock, and never holds a Job across a wait: retirement may
  /// free any terminal job whenever the lock is free.
  std::map<JobId, std::unique_ptr<Job>> jobs_ ADA_GUARDED_BY(mutex_);
  /// Ids of terminal jobs still in jobs_, in completion order.
  std::deque<JobId> finished_ ADA_GUARDED_BY(mutex_);
  std::set<PendingKey> pending_ ADA_GUARDED_BY(mutex_);
  /// Pending completion subscriptions; extracted (and erased) by
  /// FinishJob. The by-job index finds a job's subscribers without a
  /// full scan.
  struct Subscription {
    JobId job = 0;
    CompletionCallback callback;
  };
  std::map<SubscriptionId, Subscription> subscriptions_
      ADA_GUARDED_BY(mutex_);
  std::multimap<JobId, SubscriptionId> subscriptions_by_job_
      ADA_GUARDED_BY(mutex_);
  SubscriptionId next_subscription_id_ ADA_GUARDED_BY(mutex_) = 1;
  JobId next_id_ ADA_GUARDED_BY(mutex_) = 1;
  size_t active_workers_ ADA_GUARDED_BY(mutex_) = 0;
  bool paused_ ADA_GUARDED_BY(mutex_) = false;
  bool draining_ ADA_GUARDED_BY(mutex_) = false;
  SchedulerStats stats_ ADA_GUARDED_BY(mutex_);
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_SCHEDULER_H_
