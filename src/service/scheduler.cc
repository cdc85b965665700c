#include "service/scheduler.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/report.h"
#include "kdb/database.h"
#include "service/fingerprint.h"

namespace adahealth {
namespace service {

using common::Json;
using common::Status;
using common::StatusOr;

namespace {

std::chrono::steady_clock::duration MillisToDuration(double millis) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(millis));
}

double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kExpired:
      return "expired";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

bool IsTerminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kExpired || state == JobState::kCancelled;
}

common::Status JobNotFoundError(JobId id, JobId next_id) {
  if (id >= 1 && id < next_id) {
    return common::NotFoundError(common::StrFormat(
        "job %lld expired: it finished and was retired to keep the job "
        "table at %zu entries",
        static_cast<long long>(id), kRetainedJobs));
  }
  return common::NotFoundError(
      common::StrFormat("no job with id %lld", static_cast<long long>(id)));
}

JobSnapshot Scheduler::Job::Snapshot() const {
  JobSnapshot snapshot;
  snapshot.id = id;
  snapshot.state = state;
  snapshot.status = status;
  snapshot.dataset_id = request.options.dataset_id;
  snapshot.fingerprint = fingerprint;
  snapshot.priority = request.priority;
  snapshot.cache_hit = cache_hit;
  snapshot.wait_seconds = wait_seconds;
  snapshot.run_seconds = run_seconds;
  snapshot.summary = summary;
  snapshot.report = report;
  snapshot.knowledge_items = knowledge_items;
  return snapshot;
}

Scheduler::Scheduler(SchedulerOptions options)
    : options_([&options] {
        options.max_workers = std::max<size_t>(1, options.max_workers);
        options.max_queue_depth = std::max<size_t>(1, options.max_queue_depth);
        options.cache_persist_threshold =
            std::max<size_t>(1, options.cache_persist_threshold);
        return options;
      }()),
      cache_(options_.cache_bytes),
      paused_(options_.start_paused) {
  if (!options_.cache_directory.empty()) {
    common::Status restored = cache_.Restore(options_.cache_directory);
    if (restored.ok()) {
      ADA_LOG(kInfo) << "service: restored " << cache_.entries()
                     << " cached analyses from " << options_.cache_directory;
    } else {
      // Normal on first boot (no persisted cache yet); any other
      // failure degrades to a cold cache, never a failed start.
      ADA_LOG(kInfo) << "service: starting with a cold result cache ("
                     << restored.ToString() << ")";
    }
  }
}

Scheduler::~Scheduler() {
  std::vector<Notification> notifications;
  {
    common::MutexLock lock(&mutex_);
    draining_ = true;
    std::vector<JobId> backlog;
    backlog.reserve(pending_.size());
    for (const PendingKey& key : pending_) backlog.push_back(key.second);
    pending_.clear();
    for (JobId id : backlog) {
      FinishJob(*jobs_.at(id), JobState::kCancelled,
                common::Status(common::StatusCode::kOk, "scheduler shutdown"),
                &notifications);
    }
    workers_idle_.Wait(mutex_, [this]() ADA_REQUIRES(mutex_) {
      return active_workers_ == 0;
    });
  }
  // Shutdown cancellations notify after every worker has retired and
  // the lock is gone; subscribers may still query the scheduler.
  FireNotifications(notifications);
  // Final flush: pays off whatever dirty debt the persist threshold
  // left batched up.
  if (!options_.cache_directory.empty() && cache_.dirty_entries() > 0) {
    common::Status persisted = cache_.Persist(options_.cache_directory);
    if (!persisted.ok()) {
      ADA_LOG(kWarning) << "service: final cache persist failed: "
                        << persisted.ToString();
    }
  }
}

StatusOr<JobId> Scheduler::Submit(JobRequest request,
                                  const std::string& expected_fingerprint) {
  common::Status admission = ADA_FAILPOINT("service.admission");
  if (!admission.ok()) {
    common::MutexLock lock(&mutex_);
    ++stats_.shed;
    return admission;
  }
  if (request.log.num_patients() == 0 || request.log.num_records() == 0) {
    return common::InvalidArgumentError(
        "job dataset has no patients or records");
  }
  // Fingerprinting is O(records) and lock-free; done before admission
  // so the snapshot carries the cache key from the moment of submit.
  std::string fingerprint = DatasetFingerprint(request.log, request.options);
  if (!request.cohort.empty()) {
    // Versioned fingerprint: the cohort's generation is part of the
    // cache key, so each ingest-advanced snapshot gets its own entry
    // and the result cache can supersede older generations.
    fingerprint = common::StrFormat(
        "%s@%lld/%s", request.cohort.c_str(),
        static_cast<long long>(request.cohort_generation),
        fingerprint.c_str());
  }
  if (!expected_fingerprint.empty() && fingerprint != expected_fingerprint) {
    return common::InternalError(common::StrFormat(
        "fingerprint mismatch: the request was routed as %s but its dataset "
        "fingerprints as %s",
        expected_fingerprint.c_str(), fingerprint.c_str()));
  }

  std::vector<Notification> notifications;
  common::MutexLock lock(&mutex_);
  if (draining_) {
    return common::FailedPreconditionError("scheduler is shutting down");
  }
  // A newer generation makes queued jobs over older snapshots of the
  // same cohort pointless: cancel them (freeing queue room) so a
  // waiter on a stale job resolves with a stale-generation status
  // instead of burning a worker on an answer nobody should read.
  std::vector<JobId> superseded;
  if (!request.cohort.empty()) {
    for (const PendingKey& key : pending_) {
      const Job& queued = *jobs_.at(key.second);
      if (queued.request.cohort == request.cohort &&
          queued.request.cohort_generation < request.cohort_generation) {
        superseded.push_back(key.second);
      }
    }
  }
  // Admission runs BEFORE the supersede-cancels (but accounts for the
  // slots they would free): a shed submit must leave the queue exactly
  // as it found it. Cancelling first would tell the stale jobs'
  // waiters they were "superseded by generation N" when the
  // generation-N job was never admitted, leaving the cohort with no
  // queued job at all. A cache hit takes no queue slot, so it is never
  // shed for a full queue.
  std::optional<CachedAnalysis> cached = cache_.LookupHit(fingerprint);
  if (!cached &&
      pending_.size() - superseded.size() >= options_.max_queue_depth) {
    ++stats_.shed;
    return common::ResourceExhaustedError(common::StrFormat(
        "admission queue is full (%zu queued, bound %zu)", pending_.size(),
        options_.max_queue_depth));
  }
  for (JobId stale : superseded) {
    Job& queued = *jobs_.at(stale);
    pending_.erase(
        PendingKey(-static_cast<int64_t>(queued.request.priority), stale));
    ++stats_.superseded;
    FinishJob(queued, JobState::kCancelled,
              common::FailedPreconditionError(common::StrFormat(
                  "superseded by cohort '%s' generation %lld",
                  request.cohort.c_str(),
                  static_cast<long long>(request.cohort_generation))),
              &notifications);
  }

  const bool hit = cached.has_value();
  const JobId id = AdmitLocked(std::move(fingerprint), std::move(request),
                               std::move(cached), &notifications);
  const bool drain_inline = !hit && SpawnWorkersLocked();
  lock.Unlock();
  FireNotifications(notifications);
  if (drain_inline) DrainLoop();
  return id;
}

StatusOr<std::optional<JobId>> Scheduler::SubmitIfCached(
    const std::string& fingerprint, JobRequest request) {
  // A new job has no subscribers yet, so finishing it notifies no one.
  std::vector<Notification> notifications;
  common::MutexLock lock(&mutex_);
  if (draining_) {
    return common::FailedPreconditionError("scheduler is shutting down");
  }
  std::optional<CachedAnalysis> cached = cache_.LookupHit(fingerprint);
  if (!cached) return std::optional<JobId>();
  return std::optional<JobId>(AdmitLocked(fingerprint, std::move(request),
                                          std::move(cached), &notifications));
}

JobId Scheduler::AdmitLocked(std::string fingerprint, JobRequest request,
                             std::optional<CachedAnalysis> cached,
                             std::vector<Notification>* notifications) {
  stats_.retired += RetireFinished(jobs_, finished_);
  JobId id = next_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->fingerprint = std::move(fingerprint);
  job->enqueue_time = std::chrono::steady_clock::now();
  job->has_deadline = request.deadline_millis > 0.0;
  job->deadline = job->has_deadline
                      ? job->enqueue_time +
                            MillisToDuration(request.deadline_millis)
                      : std::chrono::steady_clock::time_point::max();
  job->request = std::move(request);
  Job& admitted = *job;
  jobs_.emplace(id, std::move(job));
  ++stats_.submitted;
  if (cached) {
    ServeCachedLocked(admitted, std::move(*cached), notifications);
  } else {
    pending_.emplace(-static_cast<int64_t>(admitted.request.priority), id);
  }
  return id;
}

void Scheduler::ServeCachedLocked(Job& job, CachedAnalysis cached,
                                  std::vector<Notification>* notifications) {
  job.cache_hit = true;
  job.summary = std::move(cached.summary);
  job.report = std::move(cached.report);
  job.knowledge_items = cached.knowledge_items;
  ++stats_.cache_served;
  FinishJob(job, JobState::kDone, common::OkStatus(), notifications);
}

StatusOr<JobSnapshot> Scheduler::Status(JobId id) const {
  common::MutexLock lock(&mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return JobNotFoundError(id, next_id_);
  return it->second->Snapshot();
}

StatusOr<JobSnapshot> Scheduler::AwaitResult(JobId id, double timeout_millis) {
  common::MutexLock lock(&mutex_);
  // The job is re-found by id on every wake-up: once terminal it may be
  // retired (and freed) before this waiter gets the lock back.
  auto find = [this, id]() ADA_REQUIRES(mutex_) {
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second.get();
  };
  if (find() == nullptr) return JobNotFoundError(id, next_id_);
  auto terminal = [&find]() ADA_REQUIRES(mutex_) {
    const Job* job = find();
    return job == nullptr || IsTerminal(job->state);
  };
  if (timeout_millis > 0.0) {
    if (!state_changed_.WaitFor(mutex_, timeout_millis, terminal)) {
      return common::DeadlineExceededError(common::StrFormat(
          "job %lld still %s after %.0f ms", static_cast<long long>(id),
          JobStateName(find()->state), timeout_millis));
    }
  } else {
    state_changed_.Wait(mutex_, terminal);
  }
  const Job* job = find();
  if (job == nullptr) return JobNotFoundError(id, next_id_);
  return job->Snapshot();
}

common::Status Scheduler::Cancel(JobId id) {
  std::vector<Notification> notifications;
  {
    common::MutexLock lock(&mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return JobNotFoundError(id, next_id_);
    Job& job = *it->second;
    if (job.state != JobState::kQueued) {
      return common::FailedPreconditionError(common::StrFormat(
          "job %lld is %s; only queued jobs can be cancelled",
          static_cast<long long>(id), JobStateName(job.state)));
    }
    pending_.erase(
        PendingKey(-static_cast<int64_t>(job.request.priority), job.id));
    FinishJob(job, JobState::kCancelled,
              common::Status(common::StatusCode::kOk, "cancelled by client"),
              &notifications);
  }
  FireNotifications(notifications);
  return common::OkStatus();
}

StatusOr<Scheduler::SubscriptionId> Scheduler::Subscribe(
    JobId id, CompletionCallback callback) {
  JobSnapshot already_terminal;
  {
    common::MutexLock lock(&mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return JobNotFoundError(id, next_id_);
    if (!IsTerminal(it->second->state)) {
      SubscriptionId subscription_id = next_subscription_id_++;
      subscriptions_.emplace(subscription_id,
                             Subscription{id, std::move(callback)});
      subscriptions_by_job_.emplace(id, subscription_id);
      return subscription_id;
    }
    already_terminal = it->second->Snapshot();
  }
  // Terminal before we subscribed: fire inline (without the lock, so
  // the callback may inspect the scheduler) and return the sentinel.
  callback(already_terminal);
  return SubscriptionId{0};
}

bool Scheduler::Unsubscribe(SubscriptionId id) {
  common::MutexLock lock(&mutex_);
  auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return false;
  for (auto range = subscriptions_by_job_.equal_range(it->second.job);
       range.first != range.second; ++range.first) {
    if (range.first->second == id) {
      subscriptions_by_job_.erase(range.first);
      break;
    }
  }
  subscriptions_.erase(it);
  return true;
}

void Scheduler::Pause() {
  common::MutexLock lock(&mutex_);
  paused_ = true;
}

void Scheduler::Resume() {
  common::MutexLock lock(&mutex_);
  paused_ = false;
  if (SpawnWorkersLocked()) {
    lock.Unlock();
    DrainLoop();
  }
}

void Scheduler::Drain() {
  common::MutexLock lock(&mutex_);
  paused_ = false;
  if (SpawnWorkersLocked()) {
    lock.Unlock();
    DrainLoop();
    lock.Lock();
  }
  workers_idle_.Wait(mutex_, [this]() ADA_REQUIRES(mutex_) {
    return pending_.empty() && active_workers_ == 0;
  });
}

SchedulerStats Scheduler::stats() const {
  common::MutexLock lock(&mutex_);
  SchedulerStats stats = stats_;
  stats.retained = jobs_.size();
  stats.queue_depth = pending_.size();
  stats.active_workers = active_workers_;
  return stats;
}

Json Scheduler::StatsJson() const {
  SchedulerStats stats = this->stats();
  Json::Object object;
  object["jobs_submitted"] = Json(stats.submitted);
  object["jobs_completed"] = Json(stats.completed);
  object["jobs_failed"] = Json(stats.failed);
  object["jobs_cancelled"] = Json(stats.cancelled);
  object["jobs_superseded"] = Json(stats.superseded);
  object["jobs_expired"] = Json(stats.expired);
  object["jobs_shed"] = Json(stats.shed);
  object["cache_served"] = Json(stats.cache_served);
  object["sessions_executed"] = Json(stats.sessions_executed);
  object["cache_persist_failures"] = Json(stats.cache_persist_failures);
  object["cache_persist_skipped"] = Json(stats.cache_persist_skipped);
  object["jobs_retained"] = Json(static_cast<int64_t>(stats.retained));
  object["jobs_retired"] = Json(stats.retired);
  object["queue_depth"] = Json(static_cast<int64_t>(stats.queue_depth));
  object["active_workers"] = Json(static_cast<int64_t>(stats.active_workers));
  Json::Object cache;
  cache["entries"] = Json(static_cast<int64_t>(cache_.entries()));
  cache["bytes"] = Json(static_cast<int64_t>(cache_.bytes()));
  cache["max_bytes"] = Json(static_cast<int64_t>(cache_.max_bytes()));
  cache["hits"] = Json(cache_.hits());
  cache["misses"] = Json(cache_.misses());
  cache["evictions"] = Json(cache_.evictions());
  cache["superseded"] = Json(cache_.superseded());
  object["cache"] = Json(std::move(cache));
  return Json(std::move(object));
}

bool Scheduler::SpawnWorkersLocked() {
  // One worker per pending job, capped at the configured ceiling; a
  // worker drains jobs until the queue is empty, then retires.
  while (!paused_ && !pending_.empty() &&
         active_workers_ < std::min(options_.max_workers,
                                    active_workers_ + pending_.size())) {
    if (active_workers_ >= options_.max_workers) break;
    ++active_workers_;
    bool scheduled =
        common::ThreadPool::Shared().TrySchedule([this] { DrainLoop(); });
    if (!scheduled) {
      // The shared pool only refuses during process teardown; the
      // caller runs the drain inline (with mutex_ released — DrainLoop
      // takes it itself) so no admitted job is ever lost.
      return true;
    }
  }
  return false;
}

void Scheduler::DrainLoop() {
  common::MutexLock lock(&mutex_);
  while (!paused_ && !pending_.empty()) {
    auto first = pending_.begin();
    JobId id = first->second;
    pending_.erase(first);
    Job& job = *jobs_.at(id);
    auto now = std::chrono::steady_clock::now();
    job.wait_seconds = SecondsBetween(job.enqueue_time, now);
    if (job.has_deadline && now > job.deadline) {
      ++stats_.expired;
      std::vector<Notification> notifications;
      FinishJob(job, JobState::kExpired,
                common::DeadlineExceededError(common::StrFormat(
                    "job %lld waited %.1f ms, past its %.1f ms deadline",
                    static_cast<long long>(id), 1e3 * job.wait_seconds,
                    job.request.deadline_millis)),
                &notifications);
      if (!notifications.empty()) {
        lock.Unlock();
        FireNotifications(notifications);
        lock.Lock();
      }
      continue;
    }
    job.state = JobState::kRunning;
    lock.Unlock();
    RunJob(job);
    lock.Lock();
  }
  --active_workers_;
  workers_idle_.NotifyAll();
}

void Scheduler::RunJob(Job& job) {
  common::Status injected = ADA_FAILPOINT("service.worker.session");
  if (!injected.ok()) {
    std::vector<Notification> notifications;
    {
      common::MutexLock lock(&mutex_);
      FinishJob(job, JobState::kFailed, injected, &notifications);
    }
    FireNotifications(notifications);
    return;
  }

  // Admission answered every fingerprint cached by then; this lookup
  // catches a twin queued before the first of its kind finished. It
  // also counts the miss of every job that runs a session.
  if (std::optional<CachedAnalysis> cached = cache_.Lookup(job.fingerprint)) {
    std::vector<Notification> notifications;
    {
      common::MutexLock lock(&mutex_);
      ServeCachedLocked(job, std::move(*cached), &notifications);
    }
    FireNotifications(notifications);
    return;
  }

  common::WallTimer timer;
  // Each job gets a private K-DB so concurrent sessions cannot
  // interleave collection writes (and reports stay deterministic).
  kdb::Database db;
  core::AnalysisSession session(&db);
  const dataset::Taxonomy* taxonomy =
      job.request.taxonomy.has_value() ? &*job.request.taxonomy : nullptr;
  auto result = session.Run(job.request.log, taxonomy, job.request.options);
  double run_seconds = timer.ElapsedSeconds();

  if (!result.ok()) {
    std::vector<Notification> notifications;
    {
      common::MutexLock lock(&mutex_);
      job.run_seconds = run_seconds;
      ++stats_.sessions_executed;
      FinishJob(job, JobState::kFailed, result.status(), &notifications);
    }
    FireNotifications(notifications);
    return;
  }

  std::string report = core::RenderSessionReport(
      result.value(), job.request.options.dataset_id);
  CachedAnalysis entry;
  entry.fingerprint = job.fingerprint;
  entry.dataset_id = job.request.options.dataset_id;
  entry.summary = result->summary;
  entry.report = report;
  entry.knowledge_items = static_cast<int64_t>(result->knowledge.size());
  entry.cohort = job.request.cohort;
  entry.generation = job.request.cohort_generation;
  CommitCacheEntry(std::move(entry), /*fire_hook=*/true);
  if (!job.request.cohort.empty() && options_.on_session_success) {
    // After the cache commit, so the warm state a delta job inherits
    // never describes a result that was not also served/replicated.
    options_.on_session_success(job.request, result.value());
  }

  std::vector<Notification> notifications;
  {
    common::MutexLock lock(&mutex_);
    job.run_seconds = run_seconds;
    ++stats_.sessions_executed;
    job.summary = std::move(result.value().summary);
    job.report = std::move(report);
    job.knowledge_items = static_cast<int64_t>(result->knowledge.size());
    FinishJob(job, JobState::kDone, common::OkStatus(), &notifications);
  }
  FireNotifications(notifications);
}

void Scheduler::CommitCacheEntry(CachedAnalysis entry, bool fire_hook) {
  CachedAnalysis committed = entry;  // The hook sees the full record.
  cache_.Insert(std::move(entry));
  if (!options_.cache_directory.empty()) {
    // A persist is an O(all entries) full rewrite of the cache file;
    // doing one per job made the write cost quadratic under load.
    // Batch until enough inserts accumulate (the destructor flushes
    // the remainder).
    if (cache_.dirty_entries() >= options_.cache_persist_threshold) {
      common::Status persisted = cache_.Persist(options_.cache_directory);
      if (!persisted.ok()) {
        // Persistence is an optimization for the next boot; a failed
        // write degrades to in-memory caching only.
        ADA_LOG(kWarning) << "service: cache persist failed: "
                          << persisted.ToString();
        common::MutexLock lock(&mutex_);
        ++stats_.cache_persist_failures;
      }
    } else {
      common::MutexLock lock(&mutex_);
      ++stats_.cache_persist_skipped;
    }
  }
  if (fire_hook && options_.on_result_committed) {
    options_.on_result_committed(committed);
  }
}

void Scheduler::FinishJob(Job& job, JobState state, common::Status status,
                          std::vector<Notification>* notifications) {
  job.state = state;
  job.status = std::move(status);
  // jobs_ keeps up to kRetainedJobs finished jobs, so a terminal job
  // must not keep its dataset: nothing reads the log or taxonomy past
  // this point. Snapshot() and supersede read only dataset_id, priority
  // and the cohort fields.
  job.request.log = dataset::ExamLog();
  job.request.taxonomy.reset();
  finished_.push_back(job.id);
  switch (state) {
    case JobState::kDone:
      ++stats_.completed;
      break;
    case JobState::kFailed:
      ++stats_.failed;
      break;
    case JobState::kCancelled:
      ++stats_.cancelled;
      break;
    case JobState::kExpired:
    case JobState::kQueued:
    case JobState::kRunning:
      break;  // kExpired counters are bumped at the shed site.
  }
  state_changed_.NotifyAll();
  // Extract (and retire) this job's completion subscriptions. The
  // callbacks are deliberately NOT invoked here: firing them with
  // mutex_ held deadlocked any subscriber that called back into the
  // scheduler, so the caller drains `notifications` after unlocking.
  auto range = subscriptions_by_job_.equal_range(job.id);
  if (range.first != range.second) {
    JobSnapshot snapshot = job.Snapshot();
    for (auto it = range.first; it != range.second; ++it) {
      auto subscription = subscriptions_.find(it->second);
      if (subscription == subscriptions_.end()) continue;
      notifications->push_back(
          Notification{std::move(subscription->second.callback), snapshot});
      subscriptions_.erase(subscription);
    }
    subscriptions_by_job_.erase(range.first, range.second);
  }
}

void Scheduler::FireNotifications(std::vector<Notification>& notifications) {
  for (Notification& notification : notifications) {
    notification.callback(notification.snapshot);
  }
  notifications.clear();
}

}  // namespace service
}  // namespace adahealth
