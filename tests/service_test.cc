// Service-layer coverage: dataset fingerprints, the LRU result cache
// (byte budget, persistence round-trip), and the job scheduler
// (determinism against direct AnalysisSession runs, cache-served
// repeats, priorities, load shedding, deadlines, cancellation).
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "common/failpoint.h"
#include "common/status.h"
#include "core/report.h"
#include "core/session.h"
#include "dataset/synthetic_cohort.h"
#include "kdb/database.h"
#include "service/fingerprint.h"
#include "service/result_cache.h"
#include "service/scheduler.h"

namespace adahealth {
namespace {

using common::StatusCode;

dataset::Cohort MakeCohort(uint64_t seed, int32_t patients = 120) {
  dataset::CohortConfig config = dataset::TestScaleConfig();
  config.num_patients = patients;
  config.num_exam_types = 24;
  config.num_profiles = 3;
  config.seed = seed;
  auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
  ADA_CHECK(cohort.ok());
  return std::move(cohort).value();
}

core::SessionOptions FastOptions(const std::string& dataset_id) {
  core::SessionOptions options;
  options.dataset_id = dataset_id;
  options.transform.sample_fraction = 0.4;
  options.transform.proxy_k = 4;
  options.partial.fractions = {0.5, 1.0};
  options.partial.ks = {3};
  options.partial.kmeans.max_iterations = 20;
  options.optimizer.candidate_ks = {3, 4};
  options.optimizer.cv_folds = 4;
  options.optimizer.restarts = 1;
  options.pattern_mining.min_support_level0 = 0.4;
  options.pattern_mining.min_support_level1 = 0.5;
  options.pattern_mining.min_support_level2 = 0.6;
  options.pattern_mining.max_itemset_size = 3;
  return options;
}

service::JobRequest MakeJob(uint64_t seed, const std::string& dataset_id) {
  dataset::Cohort cohort = MakeCohort(seed);
  service::JobRequest request;
  request.log = std::move(cohort.log);
  request.taxonomy = std::move(cohort.taxonomy);
  request.options = FastOptions(dataset_id);
  return request;
}

std::string MakeScratchDir(const std::string& name) {
  std::string path = testing::TempDir() + "/service_" + name;
  // Clear leftovers from a previous run: cache-persistence tests
  // assert on exactly what a new scheduler restores from here.
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
  ::mkdir(path.c_str(), 0755);
  return path;
}

// ---------------------------------------------------------------------
// Fingerprints.

TEST(FingerprintTest, StableAcrossCallsAndLogCopies) {
  dataset::Cohort cohort = MakeCohort(11);
  core::SessionOptions options = FastOptions("fp");
  std::string first = service::DatasetFingerprint(cohort.log, options);
  std::string second = service::DatasetFingerprint(cohort.log, options);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 16u);
  dataset::ExamLog copy = cohort.log;
  EXPECT_EQ(service::DatasetFingerprint(copy, options), first);
}

TEST(FingerprintTest, SensitiveToDataset) {
  core::SessionOptions options = FastOptions("fp");
  EXPECT_NE(service::DatasetFingerprint(MakeCohort(11).log, options),
            service::DatasetFingerprint(MakeCohort(12).log, options));
}

TEST(FingerprintTest, SensitiveToReportAffectingOptions) {
  dataset::Cohort cohort = MakeCohort(11);
  core::SessionOptions base = FastOptions("fp");
  std::string fingerprint = service::DatasetFingerprint(cohort.log, base);

  core::SessionOptions changed_id = base;
  changed_id.dataset_id = "fp2";
  EXPECT_NE(service::DatasetFingerprint(cohort.log, changed_id), fingerprint);

  core::SessionOptions changed_ks = base;
  changed_ks.optimizer.candidate_ks = {3, 5};
  EXPECT_NE(service::DatasetFingerprint(cohort.log, changed_ks), fingerprint);

  core::SessionOptions changed_items = base;
  changed_items.max_selected_items = 5;
  EXPECT_NE(service::DatasetFingerprint(cohort.log, changed_items),
            fingerprint);
}

TEST(FingerprintTest, IndifferentToSideEffectOnlyOptions) {
  // persist_directory and resilience change side effects and failure
  // handling, never the success-path report: same cache key.
  dataset::Cohort cohort = MakeCohort(11);
  core::SessionOptions base = FastOptions("fp");
  std::string fingerprint = service::DatasetFingerprint(cohort.log, base);

  core::SessionOptions persisted = base;
  persisted.persist_directory = "/tmp/elsewhere";
  persisted.resilience.enabled = false;
  EXPECT_EQ(service::DatasetFingerprint(cohort.log, persisted), fingerprint);
}

// ---------------------------------------------------------------------
// Result cache.

service::CachedAnalysis MakeEntry(const std::string& fingerprint,
                                  size_t report_bytes) {
  service::CachedAnalysis entry;
  entry.fingerprint = fingerprint;
  entry.dataset_id = "cohort";
  entry.summary = "summary";
  entry.report = std::string(report_bytes, 'r');
  entry.knowledge_items = 3;
  return entry;
}

TEST(ResultCacheTest, MissThenHitAndCounters) {
  service::ResultCache cache(1 << 20);
  EXPECT_FALSE(cache.Lookup("absent").has_value());
  cache.Insert(MakeEntry("a", 100));
  auto hit = cache.Lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->fingerprint, "a");
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  service::ResultCache cache(3000);
  cache.Insert(MakeEntry("a", 800));
  cache.Insert(MakeEntry("b", 800));
  cache.Insert(MakeEntry("c", 800));
  // Touch "a" so "b" is now the least recently used.
  EXPECT_TRUE(cache.Lookup("a").has_value());
  cache.Insert(MakeEntry("d", 800));
  EXPECT_GE(cache.evictions(), 1);
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("d").has_value());
  EXPECT_LE(cache.bytes(), 3000u);
}

TEST(ResultCacheTest, RejectsEntryLargerThanWholeBudget) {
  service::ResultCache cache(500);
  cache.Insert(MakeEntry("huge", 5000));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.Lookup("huge").has_value());
}

TEST(ResultCacheTest, InsertRefreshesExistingFingerprint) {
  service::ResultCache cache(1 << 20);
  cache.Insert(MakeEntry("a", 100));
  service::CachedAnalysis updated = MakeEntry("a", 200);
  updated.summary = "updated";
  cache.Insert(std::move(updated));
  EXPECT_EQ(cache.entries(), 1u);
  auto hit = cache.Lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->summary, "updated");
}

TEST(ResultCacheTest, PersistRestoreRoundTripPreservesRecency) {
  std::string dir = MakeScratchDir("cache_roundtrip");
  {
    service::ResultCache cache(1 << 20);
    cache.Insert(MakeEntry("old", 100));
    cache.Insert(MakeEntry("mid", 100));
    cache.Insert(MakeEntry("new", 100));
    ASSERT_TRUE(cache.Persist(dir).ok());
  }
  // A tighter budget on restore keeps the most recently used entries.
  service::ResultCache restored(2 * MakeEntry("old", 100).ByteSize());
  ASSERT_TRUE(restored.Restore(dir).ok());
  EXPECT_EQ(restored.entries(), 2u);
  EXPECT_TRUE(restored.Lookup("new").has_value());
  EXPECT_TRUE(restored.Lookup("mid").has_value());
  EXPECT_FALSE(restored.Lookup("old").has_value());
}

TEST(ResultCacheTest, RestoreFromEmptyDirectoryIsNotFound) {
  service::ResultCache cache(1 << 20);
  EXPECT_EQ(cache.Restore(MakeScratchDir("cache_empty")).code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// Scheduler: determinism and caching.

TEST(SchedulerTest, JobReportMatchesDirectSessionByteForByte) {
  dataset::Cohort cohort = MakeCohort(21);
  core::SessionOptions options = FastOptions("determinism");

  kdb::Database db;
  core::AnalysisSession session(&db);
  auto direct = session.Run(cohort.log, &cohort.taxonomy, options);
  ASSERT_TRUE(direct.ok());
  std::string direct_report =
      core::RenderSessionReport(direct.value(), options.dataset_id);

  service::SchedulerOptions scheduler_options;
  scheduler_options.max_workers = 2;
  service::Scheduler scheduler(scheduler_options);
  service::JobRequest request;
  request.log = cohort.log;
  request.taxonomy = cohort.taxonomy;
  request.options = options;
  auto id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok());
  auto snapshot = scheduler.AwaitResult(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, service::JobState::kDone);
  EXPECT_FALSE(snapshot->cache_hit);
  EXPECT_EQ(snapshot->report, direct_report);
  EXPECT_EQ(snapshot->summary, direct->summary);
}

TEST(SchedulerTest, RepeatSubmissionServedFromCacheWithoutSecondRun) {
  service::SchedulerOptions options;
  options.max_workers = 2;
  service::Scheduler scheduler(options);

  auto first = scheduler.Submit(MakeJob(31, "repeat"));
  ASSERT_TRUE(first.ok());
  auto first_result = scheduler.AwaitResult(first.value());
  ASSERT_TRUE(first_result.ok());
  ASSERT_EQ(first_result->state, service::JobState::kDone);
  EXPECT_FALSE(first_result->cache_hit);

  auto second = scheduler.Submit(MakeJob(31, "repeat"));
  ASSERT_TRUE(second.ok());
  auto second_result = scheduler.AwaitResult(second.value());
  ASSERT_TRUE(second_result.ok());
  EXPECT_EQ(second_result->state, service::JobState::kDone);
  EXPECT_TRUE(second_result->cache_hit);
  EXPECT_EQ(second_result->fingerprint, first_result->fingerprint);
  EXPECT_EQ(second_result->report, first_result->report);

  service::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.sessions_executed, 1);
  EXPECT_EQ(stats.cache_served, 1);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(scheduler.cache().hits(), 1);
}

TEST(SchedulerTest, CachedFingerprintIsAdmittedDoneWithoutAWorker) {
  service::SchedulerOptions options;
  options.max_workers = 1;
  options.max_queue_depth = 1;
  service::Scheduler scheduler(options);
  auto first = scheduler.Submit(MakeJob(32, "admitted"));
  ASSERT_TRUE(first.ok());
  auto first_result = scheduler.AwaitResult(first.value());
  ASSERT_TRUE(first_result.ok());
  ASSERT_EQ(first_result->state, service::JobState::kDone);

  // Paused, with its one queue slot taken: a repeat is still answered,
  // done before Submit returns, because a hit needs neither.
  scheduler.Pause();
  auto blocker = scheduler.Submit(MakeJob(33, "blocker"));
  ASSERT_TRUE(blocker.ok());
  auto repeat = scheduler.Submit(MakeJob(32, "admitted"));
  ASSERT_TRUE(repeat.ok());
  auto snapshot = scheduler.Status(repeat.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, service::JobState::kDone);
  EXPECT_TRUE(snapshot->cache_hit);
  EXPECT_EQ(snapshot->report, first_result->report);
  EXPECT_EQ(snapshot->fingerprint, first_result->fingerprint);

  // Only a cached fingerprint is admitted without its dataset; a miss
  // admits and counts nothing.
  service::JobRequest knobs;
  knobs.options.dataset_id = "admitted";
  auto hinted = scheduler.SubmitIfCached(first_result->fingerprint, knobs);
  ASSERT_TRUE(hinted.ok());
  ASSERT_TRUE(hinted->has_value());
  auto hinted_snapshot = scheduler.Status(**hinted);
  ASSERT_TRUE(hinted_snapshot.ok());
  EXPECT_EQ(hinted_snapshot->state, service::JobState::kDone);
  EXPECT_EQ(hinted_snapshot->report, first_result->report);
  auto missed = scheduler.SubmitIfCached("0123456789abcdef", knobs);
  ASSERT_TRUE(missed.ok());
  EXPECT_FALSE(missed->has_value());

  service::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.cache_served, 2);
  EXPECT_EQ(stats.sessions_executed, 1);
  EXPECT_EQ(stats.queue_depth, 1u);
  // One hit per served job, one miss per session run; the admission
  // probes of the blocker and of the missed hint count nothing.
  EXPECT_EQ(scheduler.cache().hits(), 2);
  EXPECT_EQ(scheduler.cache().misses(), 1);
  scheduler.Resume();
  scheduler.Drain();
  EXPECT_EQ(scheduler.cache().misses(), 2);
}

TEST(SchedulerTest, ExpectedFingerprintMismatchAdmitsNothing) {
  service::Scheduler scheduler(service::SchedulerOptions{});
  auto rejected = scheduler.Submit(MakeJob(34, "hinted"), "0123456789abcdef");
  EXPECT_EQ(rejected.status().code(), StatusCode::kInternal);
  service::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 0);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(scheduler.cache().misses(), 0);

  service::JobRequest job = MakeJob(34, "hinted");
  const std::string fingerprint =
      service::DatasetFingerprint(job.log, job.options);
  auto accepted = scheduler.Submit(std::move(job), fingerprint);
  ASSERT_TRUE(accepted.ok());
  auto result = scheduler.AwaitResult(accepted.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->state, service::JobState::kDone);
  EXPECT_EQ(result->fingerprint, fingerprint);
  EXPECT_EQ(scheduler.stats().sessions_executed, 1);
}

TEST(SchedulerTest, ConcurrentJobsAllCompleteAndStayDeterministic) {
  service::SchedulerOptions options;
  options.max_workers = 4;
  service::Scheduler scheduler(options);

  std::vector<service::JobId> ids;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto id = scheduler.Submit(MakeJob(40 + seed, "concurrent"));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  std::vector<service::JobSnapshot> snapshots;
  for (service::JobId id : ids) {
    auto snapshot = scheduler.AwaitResult(id);
    ASSERT_TRUE(snapshot.ok());
    EXPECT_EQ(snapshot->state, service::JobState::kDone)
        << snapshot->status.ToString();
    EXPECT_FALSE(snapshot->report.empty());
    snapshots.push_back(std::move(snapshot).value());
  }
  // Distinct datasets must not collide in the cache.
  for (size_t i = 0; i < snapshots.size(); ++i) {
    for (size_t j = i + 1; j < snapshots.size(); ++j) {
      EXPECT_NE(snapshots[i].fingerprint, snapshots[j].fingerprint);
    }
  }
  EXPECT_EQ(scheduler.stats().sessions_executed, 8);

  // A job that ran amid 7 concurrent peers still renders the exact
  // bytes of a solo direct session run.
  dataset::Cohort cohort = MakeCohort(41);
  kdb::Database db;
  core::AnalysisSession session(&db);
  auto direct =
      session.Run(cohort.log, &cohort.taxonomy, FastOptions("concurrent"));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(snapshots[0].report,
            core::RenderSessionReport(direct.value(), "concurrent"));
}

// ---------------------------------------------------------------------
// Scheduler: admission control and lifecycle.

TEST(SchedulerTest, HigherPriorityJobRunsFirst) {
  service::SchedulerOptions options;
  options.max_workers = 1;
  options.start_paused = true;
  service::Scheduler scheduler(options);

  // `low` and `high` are identical submissions; `mid` is distinct.
  // With priority dispatch the order is high(10), mid(5), low(0), so
  // `low` must be answered by the cache entry `high` created. FIFO
  // dispatch would run `low` cold instead.
  auto low = scheduler.Submit(MakeJob(51, "prio"));
  ASSERT_TRUE(low.ok());
  service::JobRequest mid_request = MakeJob(52, "prio-other");
  mid_request.priority = 5;
  auto mid = scheduler.Submit(std::move(mid_request));
  ASSERT_TRUE(mid.ok());
  service::JobRequest high_request = MakeJob(51, "prio");
  high_request.priority = 10;
  auto high = scheduler.Submit(std::move(high_request));
  ASSERT_TRUE(high.ok());

  scheduler.Resume();
  auto low_result = scheduler.AwaitResult(low.value());
  auto high_result = scheduler.AwaitResult(high.value());
  ASSERT_TRUE(low_result.ok());
  ASSERT_TRUE(high_result.ok());
  EXPECT_FALSE(high_result->cache_hit);
  EXPECT_TRUE(low_result->cache_hit);
}

TEST(SchedulerTest, FullQueueShedsWithResourceExhausted) {
  service::SchedulerOptions options;
  options.max_workers = 1;
  options.max_queue_depth = 2;
  options.start_paused = true;
  service::Scheduler scheduler(options);

  ASSERT_TRUE(scheduler.Submit(MakeJob(61, "shed-a")).ok());
  ASSERT_TRUE(scheduler.Submit(MakeJob(62, "shed-b")).ok());
  auto rejected = scheduler.Submit(MakeJob(63, "shed-c"));
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.stats().shed, 1);
  EXPECT_EQ(scheduler.stats().queue_depth, 2u);
}

TEST(SchedulerTest, QueuedJobPastDeadlineExpires) {
  service::SchedulerOptions options;
  options.max_workers = 1;
  options.start_paused = true;
  service::Scheduler scheduler(options);

  service::JobRequest request = MakeJob(71, "deadline");
  request.deadline_millis = 1.0;
  auto id = scheduler.Submit(std::move(request));
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  scheduler.Resume();
  auto snapshot = scheduler.AwaitResult(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, service::JobState::kExpired);
  EXPECT_EQ(snapshot->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(scheduler.stats().expired, 1);
  EXPECT_EQ(scheduler.stats().sessions_executed, 0);
}

TEST(SchedulerTest, CancelQueuedJobAndErrorCases) {
  service::SchedulerOptions options;
  options.start_paused = true;
  service::Scheduler scheduler(options);

  auto id = scheduler.Submit(MakeJob(81, "cancel"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.Cancel(id.value()).ok());
  auto snapshot = scheduler.Status(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, service::JobState::kCancelled);
  // Cancelled jobs cannot be cancelled again; unknown ids are NOT_FOUND.
  EXPECT_EQ(scheduler.Cancel(id.value()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(scheduler.Cancel(99999).code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.stats().cancelled, 1);
  scheduler.Resume();
}

TEST(SchedulerTest, AwaitResultTimesOutOnStalledJob) {
  service::SchedulerOptions options;
  options.start_paused = true;
  service::Scheduler scheduler(options);
  auto id = scheduler.Submit(MakeJob(91, "stalled"));
  ASSERT_TRUE(id.ok());
  auto snapshot = scheduler.AwaitResult(id.value(), 20.0);
  EXPECT_EQ(snapshot.status().code(), StatusCode::kDeadlineExceeded);
  scheduler.Resume();
}

TEST(SchedulerTest, EmptyDatasetRejectedWithoutShedAccounting) {
  service::Scheduler scheduler(service::SchedulerOptions{});
  service::JobRequest request;
  request.options = FastOptions("empty");
  auto id = scheduler.Submit(std::move(request));
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(scheduler.stats().shed, 0);
  EXPECT_EQ(scheduler.stats().submitted, 0);
}

TEST(SchedulerTest, UnknownJobIdIsNotFound) {
  service::Scheduler scheduler(service::SchedulerOptions{});
  EXPECT_EQ(scheduler.Status(12345).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.AwaitResult(12345, 10.0).status().code(),
            StatusCode::kNotFound);
}

TEST(SchedulerTest, RetentionRetiresOldestFinishedJobsOnly) {
  service::SchedulerOptions options;
  options.start_paused = true;
  service::Scheduler scheduler(options);
  scheduler.CommitCacheEntry(MakeEntry("hot", 64), /*fire_hook=*/false);
  // Job 1 stays queued behind the pause: in flight for the whole test.
  auto queued = scheduler.Submit(MakeJob(95, "in-flight"));
  ASSERT_TRUE(queued.ok());
  // Then the bound plus m finished jobs, all admission hits.
  constexpr size_t kExtra = 5;
  const service::JobRequest knobs;
  std::vector<service::JobId> hits;
  for (size_t i = 0; i < service::kRetainedJobs + kExtra; ++i) {
    auto hit = scheduler.SubmitIfCached("hot", knobs);
    ASSERT_TRUE(hit.ok() && hit->has_value());
    hits.push_back(**hit);
  }
  // At most the bound plus the in-flight job; the oldest finished
  // jobs went first and the queued one stayed.
  service::SchedulerStats stats = scheduler.stats();
  EXPECT_LE(stats.retained, service::kRetainedJobs + 1);
  EXPECT_EQ(stats.retired, static_cast<int64_t>(kExtra + 1));
  ASSERT_TRUE(scheduler.Status(queued.value()).ok());
  EXPECT_EQ(scheduler.Status(queued.value())->state,
            service::JobState::kQueued);
  for (size_t i = 0; i <= kExtra; ++i) {
    auto retired = scheduler.Status(hits[i]);
    EXPECT_EQ(retired.status().code(), StatusCode::kNotFound);
    EXPECT_NE(retired.status().message().find("expired"), std::string::npos)
        << retired.status().ToString();
  }
  EXPECT_TRUE(scheduler.Status(hits[kExtra + 1]).ok());
  // Every job verb tells a retired id from one never issued.
  EXPECT_NE(scheduler.AwaitResult(hits[0], 10.0).status().message().find(
                "expired"),
            std::string::npos);
  EXPECT_NE(scheduler.Cancel(hits[0]).message().find("expired"),
            std::string::npos);
  auto subscribed =
      scheduler.Subscribe(hits[0], [](const service::JobSnapshot&) {});
  EXPECT_NE(subscribed.status().message().find("expired"), std::string::npos);
  const service::JobId never = hits.back() + 1;
  EXPECT_EQ(scheduler.Status(never).status().message(),
            "no job with id " + std::to_string(never));
  const common::Json json = scheduler.StatsJson();
  EXPECT_EQ(json.Find("jobs_retired")->AsInt(),
            static_cast<int64_t>(kExtra + 1));
  EXPECT_EQ(json.Find("jobs_retained")->AsInt(),
            static_cast<int64_t>(stats.retained));

  // The in-flight job still runs to completion and can be awaited.
  scheduler.Resume();
  auto done = scheduler.AwaitResult(queued.value());
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, service::JobState::kDone);
}

TEST(SchedulerTest, WaitersRacingRetirementReadNoFreedJob) {
  // AwaitResult waiters and completion subscribers race a flood of
  // admission hits that retires their jobs as soon as they finish. A
  // waiter gets the terminal snapshot or, when its job was retired
  // before it woke, "expired"; a subscriber always gets its snapshot.
  // Under the sanitizers this is the use-after-free check.
  service::SchedulerOptions options;
  options.start_paused = true;
  options.max_queue_depth = 64;
  service::Scheduler scheduler(options);
  scheduler.CommitCacheEntry(MakeEntry("hot", 64), /*fire_hook=*/false);
  const service::JobRequest job = MakeJob(96, "raced");
  const service::JobRequest knobs;
  for (int round = 0; round < 3; ++round) {
    std::vector<service::JobId> queued;
    for (int i = 0; i < 8; ++i) {
      auto id = scheduler.Submit(job);
      ASSERT_TRUE(id.ok());
      queued.push_back(id.value());
    }
    std::atomic<int> notified{0};
    for (service::JobId id : queued) {
      auto subscription = scheduler.Subscribe(
          id, [&notified, id](const service::JobSnapshot& snapshot) {
            EXPECT_EQ(snapshot.id, id);
            EXPECT_EQ(snapshot.state, service::JobState::kCancelled);
            ++notified;
          });
      ASSERT_TRUE(subscription.ok());
    }
    std::atomic<int> answered{0};
    std::vector<std::thread> waiters;
    for (service::JobId id : queued) {
      waiters.emplace_back([&scheduler, &answered, id] {
        auto result = scheduler.AwaitResult(id);
        if (result.ok()) {
          EXPECT_EQ(result->state, service::JobState::kCancelled);
        } else {
          EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
          EXPECT_NE(result.status().message().find("expired"),
                    std::string::npos);
        }
        ++answered;
      });
    }
    std::thread flood([&scheduler, &knobs] {
      for (size_t i = 0; i < service::kRetainedJobs + 16; ++i) {
        auto hit = scheduler.SubmitIfCached("hot", knobs);
        EXPECT_TRUE(hit.ok() && hit->has_value());
      }
    });
    for (service::JobId id : queued) ASSERT_TRUE(scheduler.Cancel(id).ok());
    flood.join();
    for (std::thread& waiter : waiters) waiter.join();
    EXPECT_EQ(answered.load(), 8);
    EXPECT_EQ(notified.load(), 8);
  }
  const service::SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.retired, static_cast<int64_t>(2 * service::kRetainedJobs));
  EXPECT_LE(stats.retained, service::kRetainedJobs);
}

TEST(SchedulerTest, CachePersistsAcrossSchedulerInstances) {
  std::string dir = MakeScratchDir("sched_cache");
  service::SchedulerOptions options;
  options.cache_directory = dir;
  {
    service::Scheduler scheduler(options);
    auto id = scheduler.Submit(MakeJob(95, "persist"));
    ASSERT_TRUE(id.ok());
    auto snapshot = scheduler.AwaitResult(id.value());
    ASSERT_TRUE(snapshot.ok());
    ASSERT_EQ(snapshot->state, service::JobState::kDone);
  }
  service::Scheduler revived(options);
  EXPECT_EQ(revived.cache().entries(), 1u);
  auto id = revived.Submit(MakeJob(95, "persist"));
  ASSERT_TRUE(id.ok());
  auto snapshot = revived.AwaitResult(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, service::JobState::kDone);
  EXPECT_TRUE(snapshot->cache_hit);
  EXPECT_EQ(revived.stats().sessions_executed, 0);
}

TEST(SchedulerTest, CachePersistenceBatchesOnDirtyThreshold) {
  std::string dir = MakeScratchDir("sched_batch");
  service::SchedulerOptions options;
  options.cache_directory = dir;
  options.cache_persist_threshold = 4;
  {
    service::Scheduler scheduler(options);
    auto id = scheduler.Submit(MakeJob(96, "batched"));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(scheduler.AwaitResult(id.value()).ok());
    // One completed job is below the 4-dirty-entry threshold: nothing
    // hit the disk, the skipped persist was counted, and the entry
    // stays marked dirty for the eventual flush.
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    EXPECT_EQ(scheduler.stats().cache_persist_skipped, 1);
    EXPECT_EQ(scheduler.cache().dirty_entries(), 1u);
  }  // The destructor flushes whatever is still dirty.
  EXPECT_FALSE(std::filesystem::is_empty(dir));
  service::Scheduler revived(options);
  EXPECT_EQ(revived.cache().entries(), 1u);
  EXPECT_EQ(revived.cache().dirty_entries(), 0u);
}

TEST(SchedulerTest, CachePersistFiresExactlyAtDirtyThreshold) {
  std::string dir = MakeScratchDir("sched_threshold");
  service::SchedulerOptions options;
  options.cache_directory = dir;
  options.cache_persist_threshold = 3;
  options.max_workers = 1;
  service::Scheduler scheduler(options);
  // Two completed jobs leave the dirty debt one short of the
  // threshold: nothing may reach the disk yet.
  for (int64_t seed = 200; seed < 202; ++seed) {
    auto id = scheduler.Submit(MakeJob(seed, "threshold"));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(scheduler.AwaitResult(id.value()).ok());
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  EXPECT_EQ(scheduler.cache().dirty_entries(), 2u);

  // The third commit lands exactly on the threshold and must persist
  // synchronously (the worker persists before marking the job done,
  // so AwaitResult returning makes this deterministic).
  auto id = scheduler.Submit(MakeJob(202, "threshold"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.AwaitResult(id.value()).ok());
  EXPECT_FALSE(std::filesystem::is_empty(dir));
  EXPECT_EQ(scheduler.cache().dirty_entries(), 0u);

  service::Scheduler revived(options);
  EXPECT_EQ(revived.cache().entries(), 3u);
  EXPECT_EQ(revived.cache().dirty_entries(), 0u);
}

TEST(SchedulerTest, DestructorFlushCoversFailedThresholdPersist) {
  std::string dir = MakeScratchDir("sched_failed_persist");
  service::SchedulerOptions options;
  options.cache_directory = dir;
  options.cache_persist_threshold = 1;
  {
    service::Scheduler scheduler(options);
    {
      // The at-threshold persist hits the injected store error. A
      // failed persist must degrade to in-memory caching — job still
      // completes — and leave the dirty debt unpaid.
      common::ScopedFailpoint broken_store(
          "service.cache.store",
          common::OneShotError(StatusCode::kUnavailable, "disk full"));
      auto id = scheduler.Submit(MakeJob(210, "flush-after-failure"));
      ASSERT_TRUE(id.ok());
      auto snapshot = scheduler.AwaitResult(id.value());
      ASSERT_TRUE(snapshot.ok());
      EXPECT_EQ(snapshot->state, service::JobState::kDone);
    }
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    EXPECT_EQ(scheduler.cache().dirty_entries(), 1u);
    EXPECT_EQ(scheduler.stats().cache_persist_failures, 1);
  }  // Failpoint disarmed: the destructor flush settles the debt.
  EXPECT_FALSE(std::filesystem::is_empty(dir));
  service::Scheduler revived(options);
  EXPECT_EQ(revived.cache().entries(), 1u);
  EXPECT_EQ(revived.cache().dirty_entries(), 0u);
}

TEST(SchedulerTest, SubscribeDeliversTerminalSnapshotOnCompletion) {
  service::SchedulerOptions options;
  options.start_paused = true;
  service::Scheduler scheduler(options);
  auto id = scheduler.Submit(MakeJob(93, "subscribed"));
  ASSERT_TRUE(id.ok());
  std::promise<service::JobSnapshot> delivered;
  auto subscription = scheduler.Subscribe(
      id.value(), [&delivered](const service::JobSnapshot& snapshot) {
        delivered.set_value(snapshot);
      });
  ASSERT_TRUE(subscription.ok());
  EXPECT_GT(subscription.value(), 0);  // Parked, not fired inline.
  scheduler.Resume();
  auto future = delivered.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(120)),
            std::future_status::ready);
  service::JobSnapshot snapshot = future.get();
  EXPECT_EQ(snapshot.state, service::JobState::kDone);
  EXPECT_EQ(snapshot.id, id.value());
  // The subscription was consumed when it fired.
  EXPECT_FALSE(scheduler.Unsubscribe(subscription.value()));
}

TEST(SchedulerTest, SubscribeOnTerminalJobFiresInline) {
  service::Scheduler scheduler(service::SchedulerOptions{});
  auto id = scheduler.Submit(MakeJob(94, "inline-fire"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.AwaitResult(id.value()).ok());
  bool fired = false;
  auto subscription = scheduler.Subscribe(
      id.value(), [&fired](const service::JobSnapshot& snapshot) {
        fired = snapshot.state == service::JobState::kDone;
      });
  ASSERT_TRUE(subscription.ok());
  EXPECT_EQ(subscription.value(), 0);  // Sentinel: fired before returning.
  EXPECT_TRUE(fired);
  EXPECT_EQ(scheduler
                .Subscribe(4242, [](const service::JobSnapshot&) {})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SchedulerTest, SubscribeCallbackMayReenterTheScheduler) {
  // Regression: completion callbacks used to fire with the scheduler's
  // internal lock held, so a callback calling Status()/stats() (or any
  // other scheduler method) self-deadlocked. Callbacks now fire after
  // the lock is released and re-entry is part of Subscribe's contract.
  service::SchedulerOptions options;
  options.start_paused = true;
  service::Scheduler scheduler(options);
  auto id = scheduler.Submit(MakeJob(91, "reentrant"));
  ASSERT_TRUE(id.ok());
  std::promise<service::JobState> reentered;
  auto subscription = scheduler.Subscribe(
      id.value(),
      [&scheduler, &reentered](const service::JobSnapshot& snapshot) {
        auto inner = scheduler.Status(snapshot.id);  // Deadlocked before.
        (void)scheduler.stats();
        reentered.set_value(inner.ok() ? inner->state
                                       : service::JobState::kQueued);
      });
  ASSERT_TRUE(subscription.ok());
  scheduler.Resume();
  auto future = reentered.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(120)),
            std::future_status::ready);
  EXPECT_EQ(future.get(), service::JobState::kDone);
}

TEST(SchedulerTest, UnsubscribePreventsDelivery) {
  service::SchedulerOptions options;
  options.start_paused = true;
  service::Scheduler scheduler(options);
  auto id = scheduler.Submit(MakeJob(92, "unsubscribed"));
  ASSERT_TRUE(id.ok());
  std::atomic<bool> fired{false};
  auto subscription = scheduler.Subscribe(
      id.value(), [&fired](const service::JobSnapshot&) { fired = true; });
  ASSERT_TRUE(subscription.ok());
  EXPECT_TRUE(scheduler.Unsubscribe(subscription.value()));
  scheduler.Resume();
  ASSERT_TRUE(scheduler.AwaitResult(id.value()).ok());
  EXPECT_FALSE(fired.load());
}

TEST(SchedulerTest, StatsJsonCarriesSchedulerAndCacheCounters) {
  service::Scheduler scheduler(service::SchedulerOptions{});
  auto id = scheduler.Submit(MakeJob(97, "stats"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.AwaitResult(id.value()).ok());
  common::Json stats = scheduler.StatsJson();
  ASSERT_TRUE(stats.is_object());
  EXPECT_EQ(stats.Find("jobs_submitted")->AsInt(), 1);
  EXPECT_EQ(stats.Find("jobs_completed")->AsInt(), 1);
  EXPECT_EQ(stats.Find("sessions_executed")->AsInt(), 1);
  const common::Json* cache = stats.Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("entries")->AsInt(), 1);
}

}  // namespace
}  // namespace adahealth
