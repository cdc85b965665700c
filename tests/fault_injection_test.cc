// Fault-injection coverage: failpoint grammar and registry semantics,
// retry-policy behavior, and every failpoint seeded through the K-DB
// storage, database, session, optimizer, partial-mining and
// thread-pool layers.
#include <sys/socket.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include <gtest/gtest.h>
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/optimizer.h"
#include "core/partial_mining.h"
#include "core/session.h"
#include "dataset/synthetic_cohort.h"
#include "kdb/database.h"
#include "kdb/storage.h"
#include "dataset/exam_log.h"
#include "service/client.h"
#include "service/cohort_store.h"
#include "service/net_socket.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "transform/matrix.h"
#include "test_util.h"
#include "transform/vsm.h"

namespace adahealth {
namespace {

using common::FailpointConfig;
using common::FailpointRegistry;
using common::OneShotError;
using common::RetryPolicy;
using common::ScopedFailpoint;
using common::Status;
using common::StatusCode;

/// The outcome of `stage` in `result`, or nullptr when absent.
const core::StageOutcome* FindStage(const core::SessionResult& result,
                                    std::string_view stage) {
  for (const core::StageOutcome& outcome : result.stages) {
    if (outcome.stage == stage) return &outcome;
  }
  return nullptr;
}

/// Number of stages of `result` in `state`.
size_t CountStages(const core::SessionResult& result,
                   core::StageState state) {
  size_t count = 0;
  for (const core::StageOutcome& outcome : result.stages) {
    if (outcome.state == state) ++count;
  }
  return count;
}

/// Every test starts and ends with a dormant registry: failpoints are
/// process-global state and must not leak across tests.
class FaultInjectionTest : public testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Default().Clear(); }
  void TearDown() override { FailpointRegistry::Default().Clear(); }

  static bool FileExists(const std::string& path) {
    struct stat info{};
    return ::stat(path.c_str(), &info) == 0;
  }

  /// Fresh empty scratch directory under the test temp root. Clears
  /// leftovers from a previous run: several tests assert on exactly
  /// what a scheduler or database restores from the directory.
  static std::string MakeScratchDir(const std::string& name) {
    std::string path = testing::TempDir() + "/fault_" + name;
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
    ::mkdir(path.c_str(), 0755);
    return path;
  }
};

// ---------------------------------------------------------------------
// Spec grammar.

TEST_F(FaultInjectionTest, ParsesErrorActionWithCodeAndMessage) {
  auto config =
      FailpointRegistry::ParseAction("error(DATA_LOSS, disk on fire)");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->kind, FailpointConfig::Kind::kError);
  EXPECT_EQ(config->code, StatusCode::kDataLoss);
  EXPECT_EQ(config->message, "disk on fire");
  EXPECT_EQ(config->max_activations, -1);
  EXPECT_EQ(config->first_hit, 1);
}

TEST_F(FaultInjectionTest, ParsesDelayAction) {
  auto config = FailpointRegistry::ParseAction("delay(25)");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->kind, FailpointConfig::Kind::kDelay);
  EXPECT_EQ(config->delay_millis, 25);
}

TEST_F(FaultInjectionTest, ThrowActionThrowsFromEvaluate) {
  auto config = FailpointRegistry::ParseAction("throw(bad_alloc)*1");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->kind, FailpointConfig::Kind::kThrow);
  EXPECT_EQ(config->message, "bad_alloc");
  EXPECT_EQ(config->max_activations, 1);

  FailpointRegistry& registry = FailpointRegistry::Default();
  ASSERT_TRUE(registry
                  .Configure("test.throw.alloc=throw(bad_alloc)*1;"
                             "test.throw.other=throw(no such luck)")
                  .ok());
  EXPECT_THROW((void)registry.Evaluate("test.throw.alloc"), std::bad_alloc);
  EXPECT_TRUE(registry.Evaluate("test.throw.alloc").ok());  // Exhausted.
  try {
    (void)registry.Evaluate("test.throw.other");
    ADD_FAILURE() << "throw(no such luck) did not throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "no such luck");
  }
}

TEST_F(FaultInjectionTest, ParsesCountAndNthModifiers) {
  auto config = FailpointRegistry::ParseAction("error(UNAVAILABLE)*2@3");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->max_activations, 2);
  EXPECT_EQ(config->first_hit, 3);
}

TEST_F(FaultInjectionTest, ParsesOffAsZeroActivations) {
  auto config = FailpointRegistry::ParseAction("off");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->max_activations, 0);
}

TEST_F(FaultInjectionTest, RejectsBadGrammar) {
  EXPECT_FALSE(FailpointRegistry::ParseAction("explode()").ok());
  EXPECT_FALSE(FailpointRegistry::ParseAction("error(NO_SUCH_CODE)").ok());
  EXPECT_FALSE(FailpointRegistry::ParseAction("delay(-5)").ok());
  EXPECT_FALSE(FailpointRegistry::ParseAction("error(INTERNAL)*0").ok());
  EXPECT_FALSE(FailpointRegistry::ParseAction("error(INTERNAL)@0").ok());
  EXPECT_FALSE(FailpointRegistry::ParseAction("").ok());
}

TEST_F(FaultInjectionTest, ConfigureArmsFullSpec) {
  FailpointRegistry& registry = FailpointRegistry::Default();
  ASSERT_TRUE(registry
                  .Configure("kdb.storage.write=error(UNAVAILABLE)*1; "
                             "session.optimizer=delay(1)@2")
                  .ok());
  EXPECT_EQ(registry.ArmedPoints(),
            (std::vector<std::string>{"kdb.storage.write",
                                      "session.optimizer"}));
  // A bad clause rejects the whole spec and pinpoints the clause.
  Status bad = registry.Configure("a=error(UNAVAILABLE);b=banana");
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.message().find("banana"), std::string::npos);
}

// ---------------------------------------------------------------------
// Registry semantics.

TEST_F(FaultInjectionTest, DormantPointIsOkAndCountsHits) {
  FailpointRegistry& registry = FailpointRegistry::Default();
  EXPECT_TRUE(registry.Evaluate("never.armed").ok());
  EXPECT_TRUE(registry.Evaluate("never.armed").ok());
  EXPECT_EQ(registry.hits("never.armed"), 2);
}

TEST_F(FaultInjectionTest, OneShotErrorFiresExactlyOnce) {
  FailpointRegistry& registry = FailpointRegistry::Default();
  registry.Arm("p", OneShotError(StatusCode::kUnavailable, "boom"));
  Status first = registry.Evaluate("p");
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_EQ(first.message(), "boom");
  EXPECT_TRUE(registry.Evaluate("p").ok());
  EXPECT_EQ(registry.hits("p"), 2);
}

TEST_F(FaultInjectionTest, FirstHitDefersTrigger) {
  FailpointRegistry& registry = FailpointRegistry::Default();
  FailpointConfig config;
  config.first_hit = 3;
  registry.Arm("p", config);
  EXPECT_TRUE(registry.Evaluate("p").ok());
  EXPECT_TRUE(registry.Evaluate("p").ok());
  EXPECT_FALSE(registry.Evaluate("p").ok());
  // Unlimited activations: keeps firing from the 3rd hit on.
  EXPECT_FALSE(registry.Evaluate("p").ok());
}

TEST_F(FaultInjectionTest, DelayTriggerSleepsAndReturnsOk) {
  FailpointRegistry& registry = FailpointRegistry::Default();
  FailpointConfig config;
  config.kind = FailpointConfig::Kind::kDelay;
  config.delay_millis = 20;
  config.max_activations = 1;
  registry.Arm("slow", config);
  common::WallTimer timer;
  EXPECT_TRUE(registry.Evaluate("slow").ok());
  EXPECT_GE(timer.ElapsedSeconds(), 0.015);
}

TEST_F(FaultInjectionTest, ScopedFailpointDisarmsOnDestruction) {
  {
    ScopedFailpoint guard("scoped.p", OneShotError());
    EXPECT_FALSE(FailpointRegistry::Default().ArmedPoints().empty());
  }
  EXPECT_TRUE(FailpointRegistry::Default().ArmedPoints().empty());
}

// ---------------------------------------------------------------------
// Retry policy.

TEST_F(FaultInjectionTest, RetrySucceedsAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_millis = 0.1;
  int calls = 0;
  int32_t attempts = 0;
  Status status = common::RetryWithPolicy(
      policy, "op",
      [&] {
        return ++calls < 3 ? common::UnavailableError("busy")
                           : common::OkStatus();
      },
      &attempts);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(attempts, 3);
}

TEST_F(FaultInjectionTest, RetryFailsFastOnNonRetryableCode) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  Status status = common::RetryWithPolicy(policy, "op", [&] {
    ++calls;
    return common::InternalError("bug, not weather");
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 1);
  EXPECT_NE(status.message().find("after 1 attempt"), std::string::npos);
}

TEST_F(FaultInjectionTest, RetryGivesUpAfterMaxAttempts) {
  int64_t giveups_before = common::MetricsRegistry::Default()
                               .GetCounter("retry_giveups")
                               .value();
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_millis = 0.1;
  int calls = 0;
  Status status = common::RetryWithPolicy(policy, "doomed", [&] {
    ++calls;
    return common::UnavailableError("still down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_NE(status.message().find("doomed failed after 3 attempt"),
            std::string::npos);
  EXPECT_EQ(common::MetricsRegistry::Default()
                .GetCounter("retry_giveups")
                .value(),
            giveups_before + 1);
}

TEST_F(FaultInjectionTest, PerAttemptDeadlineConvertsOverrunToRetry) {
  // The operation succeeds but overruns its 1 ms budget; the deadline
  // turns that into a retryable DEADLINE_EXCEEDED until attempts run
  // out.
  ScopedFailpoint slow("retry.slow", [] {
    FailpointConfig config;
    config.kind = FailpointConfig::Kind::kDelay;
    config.delay_millis = 10;
    return config;
  }());
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_millis = 0.1;
  policy.per_attempt_deadline_millis = 1.0;
  Status status = common::RetryWithPolicy(policy, "slow-op", [&] {
    return FailpointRegistry::Default().Evaluate("retry.slow");
  });
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultInjectionTest, RetryAttemptsCounterAdvances) {
  int64_t before = common::MetricsRegistry::Default()
                       .GetCounter("retry_attempts")
                       .value();
  RetryPolicy policy;
  policy.max_attempts = 1;
  EXPECT_TRUE(
      common::RetryWithPolicy(policy, "noop", [] { return common::OkStatus(); })
          .ok());
  EXPECT_EQ(common::MetricsRegistry::Default()
                .GetCounter("retry_attempts")
                .value(),
            before + 1);
}

// ---------------------------------------------------------------------
// K-DB storage failpoints (kdb.storage.write / fsync / rename / read).

kdb::Collection MakeCollection(const std::string& name, int64_t docs) {
  kdb::Collection collection(name);
  for (int64_t i = 0; i < docs; ++i) {
    kdb::Document document;
    document.Set("value", common::Json(i));
    collection.Insert(std::move(document));
  }
  return collection;
}

TEST_F(FaultInjectionTest, WriteFailpointFailsSaveWithoutResidue) {
  std::string dir = MakeScratchDir("write");
  ScopedFailpoint fp("kdb.storage.write",
                     OneShotError(StatusCode::kUnavailable));
  Status saved = SaveCollection(MakeCollection("items", 3), dir);
  EXPECT_EQ(saved.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(FileExists(dir + "/items.jsonl"));
  EXPECT_FALSE(FileExists(dir + "/items.jsonl.tmp"));
}

TEST_F(FaultInjectionTest, FsyncFailpointFailsSaveWithoutResidue) {
  std::string dir = MakeScratchDir("fsync");
  ScopedFailpoint fp("kdb.storage.fsync",
                     OneShotError(StatusCode::kUnavailable));
  EXPECT_FALSE(SaveCollection(MakeCollection("items", 3), dir).ok());
  EXPECT_FALSE(FileExists(dir + "/items.jsonl"));
  EXPECT_FALSE(FileExists(dir + "/items.jsonl.tmp"));
}

TEST_F(FaultInjectionTest, RenameFailpointLeavesPreviousFileIntact) {
  std::string dir = MakeScratchDir("rename");
  ASSERT_TRUE(SaveCollection(MakeCollection("items", 3), dir).ok());
  {
    // The acceptance scenario: a crash between write and rename must
    // leave the previous version loadable and no *.tmp behind.
    ScopedFailpoint fp("kdb.storage.rename",
                       OneShotError(StatusCode::kUnavailable));
    EXPECT_FALSE(SaveCollection(MakeCollection("items", 7), dir).ok());
  }
  EXPECT_FALSE(FileExists(dir + "/items.jsonl.tmp"));
  auto loaded = kdb::LoadCollection("items", dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 3u);
  // With the failpoint gone the save goes through.
  ASSERT_TRUE(SaveCollection(MakeCollection("items", 7), dir).ok());
  auto reloaded = kdb::LoadCollection("items", dir);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->size(), 7u);
}

TEST_F(FaultInjectionTest, ReadFailpointFailsBothLoadPaths) {
  std::string dir = MakeScratchDir("read");
  ASSERT_TRUE(SaveCollection(MakeCollection("items", 2), dir).ok());
  FailpointRegistry::Default().Arm(
      "kdb.storage.read",
      [] {
        FailpointConfig config;
        config.code = StatusCode::kUnavailable;
        config.max_activations = 2;
        return config;
      }());
  EXPECT_EQ(kdb::LoadCollection("items", dir).status().code(),
            StatusCode::kUnavailable);
  kdb::Database db;
  kdb::Database::PersistOptions no_retry;
  no_retry.retry.max_attempts = 1;
  EXPECT_EQ(db.LoadFrom(dir, {"items"}, no_retry).code(),
            StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------
// Database persistence retry (kdb.database.save / kdb.database.load).

TEST_F(FaultInjectionTest, SaveToRetriesTransientFailure) {
  std::string dir = MakeScratchDir("dbsave");
  kdb::Database db;
  db.EnsureAdaHealthSchema();
  ScopedFailpoint fp("kdb.database.save",
                     OneShotError(StatusCode::kUnavailable));
  kdb::Database::PersistOptions options;
  options.retry.initial_backoff_millis = 0.1;
  EXPECT_TRUE(db.SaveTo(dir, options).ok());
  for (const std::string& name : kdb::Schema::CollectionNames()) {
    EXPECT_TRUE(FileExists(dir + "/" + name + ".jsonl")) << name;
  }
}

TEST_F(FaultInjectionTest, SaveToWithoutRetryPropagatesFailure) {
  std::string dir = MakeScratchDir("dbsave1");
  kdb::Database db;
  db.EnsureAdaHealthSchema();
  ScopedFailpoint fp("kdb.database.save",
                     OneShotError(StatusCode::kUnavailable));
  kdb::Database::PersistOptions options;
  options.retry.max_attempts = 1;
  EXPECT_EQ(db.SaveTo(dir, options).code(), StatusCode::kUnavailable);
}

TEST_F(FaultInjectionTest, LoadFromRetriesTransientFailure) {
  std::string dir = MakeScratchDir("dbload");
  kdb::Database db;
  db.EnsureAdaHealthSchema();
  db.GetOrCreate(kdb::Schema::kFeedback).Insert(kdb::Document());
  ASSERT_TRUE(db.SaveTo(dir).ok());

  kdb::Database restored;
  ScopedFailpoint fp("kdb.database.load",
                     OneShotError(StatusCode::kUnavailable));
  kdb::Database::PersistOptions options;
  options.retry.initial_backoff_millis = 0.1;
  ASSERT_TRUE(
      restored.LoadFrom(dir, {kdb::Schema::kFeedback}, options).ok());
  EXPECT_EQ(restored.GetOrCreate(kdb::Schema::kFeedback).size(), 1u);
}

TEST_F(FaultInjectionTest, SaveToMissingDirectoryIsUnavailable) {
  kdb::Database db;
  db.EnsureAdaHealthSchema();
  Status saved = db.SaveTo("/no/such/directory/anywhere");
  EXPECT_EQ(saved.code(), StatusCode::kUnavailable);
  EXPECT_NE(saved.message().find("/no/such/directory/anywhere"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Optimizer, partial mining and thread pool failpoints.

TEST_F(FaultInjectionTest, OptimizerCandidateFailpointSkipsCandidate) {
  test::Blobs blobs =
      test::MakeBlobs({{0.0, 0.0}, {8.0, 0.0}, {0.0, 8.0}}, 30, 0.6, 71);
  core::OptimizerOptions options;
  options.candidate_ks = {2, 3};
  options.cv_folds = 4;
  ScopedFailpoint fp("optimizer.candidate",
                     OneShotError(StatusCode::kUnavailable));
  auto result = core::OptimizeClustering(blobs.points, options);
  ASSERT_TRUE(result.ok());
  // First candidate skipped with the injected status, second evaluated
  // and selected.
  EXPECT_EQ(result->candidates[0].status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(result->candidates[1].status.ok());
  EXPECT_EQ(result->best_k(), 3);
}

TEST_F(FaultInjectionTest, OptimizerFailsWhenEveryCandidateInjected) {
  test::Blobs blobs =
      test::MakeBlobs({{0.0, 0.0}, {8.0, 0.0}}, 20, 0.6, 72);
  core::OptimizerOptions options;
  options.candidate_ks = {2, 3};
  options.cv_folds = 4;
  FailpointConfig config;
  config.code = StatusCode::kInternal;
  ScopedFailpoint fp("optimizer.candidate", config);
  auto result = core::OptimizeClustering(blobs.points, options);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(FaultInjectionTest, SweepRunFailpointSkipsExactlyOneCandidate) {
  test::Blobs blobs = test::MakeBlobs(
      {{0.0, 0.0}, {8.0, 0.0}, {0.0, 8.0}}, 40, 0.6, 71);
  core::OptimizerOptions options;
  options.candidate_ks = {2, 3, 4, 6};
  options.cv_folds = 4;
  auto clean = core::OptimizeClustering(blobs.points, options);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->num_skipped(), 0u);
  // One of the sweep's fanned-out restarts fails; which one depends on
  // the interleaving, but only its candidate is skipped.
  ScopedFailpoint fp("cluster.sweep.run",
                     OneShotError(StatusCode::kUnavailable));
  auto result = core::OptimizeClustering(blobs.points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_skipped(), 1u);
  for (const core::CandidateEvaluation& candidate : result->candidates) {
    if (candidate.skipped()) {
      EXPECT_EQ(candidate.status.code(), StatusCode::kUnavailable);
    } else {
      EXPECT_TRUE(candidate.status.ok());
    }
  }
}

TEST_F(FaultInjectionTest, PartialMiningDropsInjectedNonBaselineStep) {
  auto cohort =
      dataset::SyntheticCohortGenerator(dataset::TestScaleConfig())
          .Generate();
  ASSERT_TRUE(cohort.ok());
  core::PartialMiningOptions options;
  options.fractions = {0.5};
  options.ks = {3};
  options.kmeans.max_iterations = 20;
  ScopedFailpoint fp("partial_mining.step",
                     OneShotError(StatusCode::kUnavailable));
  auto result = core::RunExamSubsetPartialMining(cohort->log, options);
  ASSERT_TRUE(result.ok());
  // The 0.5 step was dropped; only the full-data baseline remains.
  ASSERT_EQ(result->steps.size(), 1u);
  EXPECT_DOUBLE_EQ(result->steps[0].fraction, 1.0);
}

TEST_F(FaultInjectionTest, PartialMiningBaselineFailurePropagates) {
  auto cohort =
      dataset::SyntheticCohortGenerator(dataset::TestScaleConfig())
          .Generate();
  ASSERT_TRUE(cohort.ok());
  core::PartialMiningOptions options;
  options.fractions = {0.5};
  options.ks = {3};
  options.kmeans.max_iterations = 20;
  FailpointConfig config;
  config.code = StatusCode::kUnavailable;
  config.first_hit = 2;  // Schedule is {0.5, 1.0}: hit 2 is the baseline.
  ScopedFailpoint fp("partial_mining.step", config);
  auto result = core::RunExamSubsetPartialMining(cohort->log, options);
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(FaultInjectionTest, ThreadPoolTaskFailpointCountsFailedTask) {
  ScopedFailpoint fp("thread_pool.task",
                     OneShotError(StatusCode::kInternal, "injected"));
  std::atomic<int> executed{0};
  common::ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Schedule([&executed] { ++executed; });
  }
  pool.Wait();
  // The injected failure is accounted, but the task body still ran:
  // completion is load-bearing for ParallelFor.
  EXPECT_EQ(pool.failed_tasks(), 1u);
  EXPECT_EQ(pool.first_failure_message(), "injected");
  EXPECT_EQ(executed.load(), 8);
}

// ---------------------------------------------------------------------
// Resilient session execution (session.<stage> failpoints).

class FaultInjectionSessionTest : public FaultInjectionTest {
 protected:
  void SetUp() override {
    FaultInjectionTest::SetUp();
    auto cohort =
        dataset::SyntheticCohortGenerator(dataset::TestScaleConfig())
            .Generate();
    ASSERT_TRUE(cohort.ok());
    cohort_ = std::move(cohort).value();
  }

  static core::SessionOptions FastOptions() {
    core::SessionOptions options;
    options.dataset_id = "fault-cohort";
    options.transform.sample_fraction = 0.4;
    options.transform.proxy_k = 4;
    options.partial.fractions = {0.5, 1.0};
    options.partial.ks = {3};
    options.partial.kmeans.max_iterations = 20;
    options.optimizer.candidate_ks = {3, 4};
    options.optimizer.cv_folds = 4;
    options.pattern_mining.min_support_level0 = 0.4;
    options.pattern_mining.min_support_level1 = 0.5;
    options.pattern_mining.min_support_level2 = 0.6;
    options.pattern_mining.max_itemset_size = 3;
    options.resilience.retry.initial_backoff_millis = 0.1;
    return options;
  }

  dataset::Cohort cohort_;
};

TEST_F(FaultInjectionSessionTest, TransientStageFailureIsRetriedToOk) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  ScopedFailpoint fp("session.characterize",
                     OneShotError(StatusCode::kUnavailable));
  auto result = session.Run(cohort_.log, &cohort_.taxonomy, FastOptions());
  ASSERT_TRUE(result.ok());
  const core::StageOutcome* outcome = FindStage(*result, "characterize");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->state, core::StageState::kOk);
  EXPECT_EQ(outcome->attempts, 2);
  EXPECT_NE(result->summary.find("characterize=ok(2 attempts)"),
            std::string::npos);
}

TEST_F(FaultInjectionSessionTest, NonEssentialStageDegradesRunStillOk) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  // INTERNAL is not retryable: the knowledge stage degrades instead.
  ScopedFailpoint fp("session.knowledge",
                     OneShotError(StatusCode::kInternal));
  auto result = session.Run(cohort_.log, &cohort_.taxonomy, FastOptions());
  ASSERT_TRUE(result.ok());
  const core::StageOutcome* outcome = FindStage(*result, "knowledge");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->state, core::StageState::kDegraded);
  EXPECT_EQ(outcome->status.code(), StatusCode::kInternal);
  EXPECT_EQ(CountStages(*result, core::StageState::kDegraded), 1u);
  EXPECT_NE(result->summary.find("resilience:"), std::string::npos);
}

TEST_F(FaultInjectionSessionTest, PartialMiningDegradesToFullDataset) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  ScopedFailpoint fp("session.partial_mining",
                     OneShotError(StatusCode::kInternal));
  auto result = session.Run(cohort_.log, &cohort_.taxonomy, FastOptions());
  ASSERT_TRUE(result.ok());
  const core::StageOutcome* outcome = FindStage(*result, "partial_mining");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->state, core::StageState::kDegraded);
  // Fallback: mine the full dataset.
  ASSERT_EQ(result->partial.steps.size(), 1u);
  EXPECT_DOUBLE_EQ(result->partial.steps[0].fraction, 1.0);
  // Downstream stages still produced knowledge.
  EXPECT_FALSE(result->knowledge.empty());
}

TEST_F(FaultInjectionSessionTest, SweepRunFailureDegradesPartialMining) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  // INTERNAL is not retryable: the first k-means sweep (partial
  // mining's) fails its stage, which degrades to the full dataset.
  ScopedFailpoint fp("cluster.sweep.run",
                     OneShotError(StatusCode::kInternal, "injected"));
  auto result = session.Run(cohort_.log, &cohort_.taxonomy, FastOptions());
  ASSERT_TRUE(result.ok());
  const core::StageOutcome* outcome = FindStage(*result, "partial_mining");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->state, core::StageState::kDegraded);
  EXPECT_EQ(outcome->status.code(), StatusCode::kInternal);
  ASSERT_EQ(result->partial.steps.size(), 1u);
  EXPECT_DOUBLE_EQ(result->partial.steps[0].fraction, 1.0);
  const core::StageOutcome* optimizer = FindStage(*result, "optimizer");
  ASSERT_NE(optimizer, nullptr);
  EXPECT_EQ(optimizer->state, core::StageState::kOk);
  EXPECT_EQ(result->optimizer.num_skipped(), 0u);
}

TEST_F(FaultInjectionSessionTest, EssentialStageFailureAbortsRun) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  ScopedFailpoint fp("session.optimizer",
                     OneShotError(StatusCode::kInternal, "injected"));
  auto result = session.Run(cohort_.log, &cohort_.taxonomy, FastOptions());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_F(FaultInjectionSessionTest, ResilienceDisabledFailsFast) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  core::SessionOptions options = FastOptions();
  options.resilience.enabled = false;
  ScopedFailpoint fp("session.characterize",
                     OneShotError(StatusCode::kUnavailable));
  auto result = session.Run(cohort_.log, &cohort_.taxonomy, options);
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(FaultInjectionSessionTest, StoreStageDegradesWhenPersistFails) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  core::SessionOptions options = FastOptions();
  options.persist_directory = "/no/such/persist/dir";
  int64_t degraded_before = common::MetricsRegistry::Default()
                                .GetCounter("stage_degraded_total")
                                .value();
  auto result = session.Run(cohort_.log, &cohort_.taxonomy, options);
  ASSERT_TRUE(result.ok());
  const core::StageOutcome* outcome = FindStage(*result, "kdb_store");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->state, core::StageState::kDegraded);
  EXPECT_EQ(outcome->status.code(), StatusCode::kUnavailable);
  // In-memory K-DB is still populated despite the failed persist.
  EXPECT_GT(db.GetOrCreate(kdb::Schema::kKnowledgeItems).size(), 0u);
  EXPECT_GT(common::MetricsRegistry::Default()
                .GetCounter("stage_degraded_total")
                .value(),
            degraded_before);
}

TEST_F(FaultInjectionSessionTest, SessionPersistsKdbWhenDirectoryGiven) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  core::SessionOptions options = FastOptions();
  options.persist_directory = MakeScratchDir("session_persist");
  auto result = session.Run(cohort_.log, &cohort_.taxonomy, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(FileExists(options.persist_directory + "/" +
                         kdb::Schema::kKnowledgeItems + ".jsonl"));
  const core::StageOutcome* outcome = FindStage(*result, "kdb_store");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->state, core::StageState::kOk);
}

TEST_F(FaultInjectionSessionTest, SkipsPatternMiningWithoutTaxonomy) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  auto result = session.Run(cohort_.log, nullptr, FastOptions());
  ASSERT_TRUE(result.ok());
  const core::StageOutcome* outcome = FindStage(*result, "pattern_mining");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->state, core::StageState::kSkipped);
  EXPECT_EQ(outcome->attempts, 0);
}

TEST_F(FaultInjectionSessionTest, BudgetOverrunMarksStageDegraded) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  core::SessionOptions options = FastOptions();
  // A 1 microsecond budget the optimizer cannot possibly meet; the
  // stage finishes, keeps its results, and is flagged over budget.
  options.resilience.stage_budget_seconds["optimizer"] = 1e-6;
  auto result = session.Run(cohort_.log, &cohort_.taxonomy, options);
  ASSERT_TRUE(result.ok());
  const core::StageOutcome* outcome = FindStage(*result, "optimizer");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->state, core::StageState::kDegraded);
  EXPECT_TRUE(outcome->over_budget);
  EXPECT_EQ(outcome->status.code(), StatusCode::kDeadlineExceeded);
  // The optimizer's results are still used downstream.
  EXPECT_FALSE(result->knowledge.empty());
}

// ---------------------------------------------------------------------
// Service-layer failpoints (service.admission / service.cache.store /
// service.cache.load / service.worker.session).

class FaultInjectionServiceTest : public FaultInjectionSessionTest {
 protected:
  service::JobRequest MakeJob(const std::string& dataset_id) {
    service::JobRequest request;
    request.log = cohort_.log;
    request.taxonomy = cohort_.taxonomy;
    request.options = FastOptions();
    request.options.dataset_id = dataset_id;
    return request;
  }
};

TEST_F(FaultInjectionServiceTest, AdmissionFailpointShedsWithoutLosingJobs) {
  service::SchedulerOptions options;
  options.max_workers = 1;
  service::Scheduler scheduler(options);
  {
    ScopedFailpoint fp("service.admission",
                       OneShotError(StatusCode::kUnavailable, "admission"));
    auto rejected = scheduler.Submit(MakeJob("shed"));
    EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(scheduler.stats().shed, 1);
  EXPECT_EQ(scheduler.stats().submitted, 0);
  // The failure is confined to that submission: the next one runs.
  auto accepted = scheduler.Submit(MakeJob("shed"));
  ASSERT_TRUE(accepted.ok());
  auto snapshot = scheduler.AwaitResult(accepted.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, service::JobState::kDone);
  service::SchedulerStats stats = scheduler.stats();
  // Every admitted job is accounted exactly once, none ran twice.
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.sessions_executed, 1);
}

TEST_F(FaultInjectionServiceTest, CacheStoreFailureDegradesNotFails) {
  service::SchedulerOptions options;
  options.cache_directory = MakeScratchDir("svc_store");
  service::Scheduler scheduler(options);
  ScopedFailpoint fp("service.cache.store",
                     OneShotError(StatusCode::kUnavailable));
  auto id = scheduler.Submit(MakeJob("store-degraded"));
  ASSERT_TRUE(id.ok());
  auto snapshot = scheduler.AwaitResult(id.value());
  ASSERT_TRUE(snapshot.ok());
  // The job completes; only the cache's durability degraded.
  EXPECT_EQ(snapshot->state, service::JobState::kDone);
  EXPECT_FALSE(snapshot->report.empty());
  EXPECT_EQ(scheduler.stats().cache_persist_failures, 1);
  // The in-memory entry is still there: a repeat is served from cache.
  auto repeat = scheduler.Submit(MakeJob("store-degraded"));
  ASSERT_TRUE(repeat.ok());
  auto repeat_snapshot = scheduler.AwaitResult(repeat.value());
  ASSERT_TRUE(repeat_snapshot.ok());
  EXPECT_TRUE(repeat_snapshot->cache_hit);
}

TEST_F(FaultInjectionServiceTest, CacheLoadFailureStartsColdNotCrashed) {
  std::string dir = MakeScratchDir("svc_load");
  service::SchedulerOptions options;
  options.cache_directory = dir;
  {
    service::Scheduler warmup(options);
    auto id = warmup.Submit(MakeJob("cold-start"));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(warmup.AwaitResult(id.value()).ok());
  }
  ScopedFailpoint fp("service.cache.load",
                     OneShotError(StatusCode::kDataLoss));
  service::Scheduler revived(options);
  // The persisted cache was unreadable: cold start, full re-execution.
  EXPECT_EQ(revived.cache().entries(), 0u);
  auto id = revived.Submit(MakeJob("cold-start"));
  ASSERT_TRUE(id.ok());
  auto snapshot = revived.AwaitResult(id.value());
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, service::JobState::kDone);
  EXPECT_FALSE(snapshot->cache_hit);
  EXPECT_EQ(revived.stats().sessions_executed, 1);
}

TEST_F(FaultInjectionServiceTest, WorkerSessionFailureIsConfinedToOneJob) {
  service::SchedulerOptions options;
  options.max_workers = 1;
  options.start_paused = true;
  service::Scheduler scheduler(options);
  auto doomed = scheduler.Submit(MakeJob("doomed"));
  ASSERT_TRUE(doomed.ok());
  auto survivor = scheduler.Submit(MakeJob("survivor"));
  ASSERT_TRUE(survivor.ok());
  ScopedFailpoint fp("service.worker.session",
                     OneShotError(StatusCode::kInternal, "worker died"));
  scheduler.Resume();
  auto doomed_snapshot = scheduler.AwaitResult(doomed.value());
  ASSERT_TRUE(doomed_snapshot.ok());
  EXPECT_EQ(doomed_snapshot->state, service::JobState::kFailed);
  EXPECT_EQ(doomed_snapshot->status.code(), StatusCode::kInternal);
  auto survivor_snapshot = scheduler.AwaitResult(survivor.value());
  ASSERT_TRUE(survivor_snapshot.ok());
  EXPECT_EQ(survivor_snapshot->state, service::JobState::kDone);
  service::SchedulerStats stats = scheduler.stats();
  // No lost and no double-run jobs: 2 submitted, 1 failed + 1 done,
  // and only the survivor actually executed a session.
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.sessions_executed, 1);
}

TEST_F(FaultInjectionServiceTest, ThrowingJobFailsAndFreesItsWorker) {
  service::SchedulerOptions options;
  options.max_workers = 1;
  auto scheduler = std::make_unique<service::Scheduler>(options);
  // A throw out of a job must fail that job, not reach the shared
  // pool's trap: there it would leave the job running and its worker
  // never retired, so the destructor below would wait forever.
  const std::pair<const char*, StatusCode> throws[] = {
      {"bad_alloc", StatusCode::kResourceExhausted},
      {"boom", StatusCode::kInternal}};
  for (const auto& [message, code] : throws) {
    SCOPED_TRACE(message);
    FailpointConfig config;
    config.kind = FailpointConfig::Kind::kThrow;
    config.message = message;
    config.max_activations = 1;
    ScopedFailpoint fp("service.worker.session", config);
    auto id = scheduler->Submit(MakeJob(std::string("threw-") + message));
    ASSERT_TRUE(id.ok());
    auto snapshot = scheduler->AwaitResult(id.value(), 30000);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    EXPECT_EQ(snapshot->state, service::JobState::kFailed);
    EXPECT_EQ(snapshot->status.code(), code) << snapshot->status.ToString();
  }
  // The one worker drains on.
  auto next = scheduler->Submit(MakeJob("after-the-throws"));
  ASSERT_TRUE(next.ok());
  auto done = scheduler->AwaitResult(next.value(), 30000);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->state, service::JobState::kDone);
  const service::SchedulerStats stats = scheduler->stats();
  EXPECT_EQ(stats.failed, 2);
  EXPECT_EQ(stats.completed, 1);
  scheduler.reset();  // Returns: every worker retired.
}

// ---------------------------------------------------------------------
// Socket-layer failpoints (service.net.accept / service.net.read /
// service.net.write) against the live epoll server: an injected I/O
// failure costs at most one accept attempt or one connection, never
// the server.

namespace {
/// The server's own error counter, as its `stats` verb reports it.
int64_t ServerErrorCount(service::AnalysisServer& server) {
  service::Request request;
  request.verb = "stats";
  auto stats = service::ParseResponse(server.Dispatch(request));
  if (!stats.ok()) return -1;
  return stats->Find("server")->Find("errors")->AsInt();
}

/// Spins until the server's error counter moves past `floor` (the
/// injected failure is processed on the event-loop thread, not ours).
bool AwaitServerErrorsAbove(service::AnalysisServer& server, int64_t floor) {
  for (int attempt = 0; attempt < 250; ++attempt) {
    if (ServerErrorCount(server) > floor) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}
}  // namespace

TEST_F(FaultInjectionServiceTest, AcceptFailpointIsRetriedByTheEventLoop) {
  service::AnalysisServer server(service::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  int64_t errors_before = ServerErrorCount(server);
  ScopedFailpoint fp("service.net.accept",
                     OneShotError(StatusCode::kUnavailable, "accept blip"));
  // The first accept attempt eats the injected failure; level-triggered
  // epoll re-reports the still-pending connection and the retry admits
  // it, so the client never notices.
  auto client = service::AnalysisClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Call("ping").ok());
  EXPECT_EQ(ServerErrorCount(server), errors_before + 1);
  server.Stop();
}

TEST_F(FaultInjectionServiceTest, ReadFailpointFailsOneConnectionNotServer) {
  service::AnalysisServer server(service::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto doomed = service::ConnectLoopback(server.port());
  ASSERT_TRUE(doomed.ok());
  int64_t errors_before = ServerErrorCount(server);
  ScopedFailpoint fp("service.net.read",
                     OneShotError(StatusCode::kUnavailable, "read blip"));
  // This send is fine (only reads are poisoned); the server's recv on
  // the event loop hits the failpoint and drops the connection.
  ASSERT_TRUE(
      service::SendAll(doomed.value(), "{\"verb\":\"ping\"}\n").ok());
  ASSERT_TRUE(AwaitServerErrorsAbove(server, errors_before));
  // Only that connection died: it sees EOF, a fresh client is served.
  service::LineReader reader(doomed.value());
  EXPECT_FALSE(reader.ReadLine().ok());
  auto fresh = service::AnalysisClient::Connect(server.port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->Call("ping").ok());
  server.Stop();
}

TEST_F(FaultInjectionServiceTest, WriteFailpointFailsOneConnectionNotServer) {
  service::AnalysisServer server(service::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto doomed = service::ConnectLoopback(server.port());
  ASSERT_TRUE(doomed.ok());
  service::LineReader reader(doomed.value());
  // Warm exchange first, so the failpoint below cannot be consumed by
  // the response to an earlier request.
  ASSERT_TRUE(
      service::SendAll(doomed.value(), "{\"verb\":\"ping\"}\n").ok());
  ASSERT_TRUE(reader.ReadLine().ok());

  int64_t errors_before = ServerErrorCount(server);
  ScopedFailpoint fp("service.net.write",
                     OneShotError(StatusCode::kUnavailable, "write blip"));
  // Raw ::send so the client-side SendAll helper cannot eat the
  // one-shot failpoint before the server's response write does.
  const char request[] = "{\"verb\":\"ping\"}\n";
  ASSERT_GT(::send(doomed->get(), request,  // ada-lint: allow(raw-socket)
                   sizeof(request) - 1, MSG_NOSIGNAL),
            0);
  ASSERT_TRUE(AwaitServerErrorsAbove(server, errors_before));
  // The response write failed: connection dropped, no reply; the
  // server itself keeps serving.
  EXPECT_FALSE(reader.ReadLine().ok());
  auto fresh = service::AnalysisClient::Connect(server.port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->Call("ping").ok());
  server.Stop();
}

// ---------------------------------------------------------------------
// Streaming cohort store (service/cohort_store.h): every ingest
// failpoint degrades to the previous generation or to a cold run,
// never to a torn or wrong answer.

dataset::RawExamRecord IngestRow(int32_t patient, std::string exam_type,
                                 int32_t day) {
  dataset::RawExamRecord row;
  row.patient = patient;
  row.exam_type = std::move(exam_type);
  row.day = day;
  return row;
}

/// The minimal successful analysis OnAnalysisCommitted accepts.
core::SessionResult FakeAnalysis(int32_t k, size_t dims) {
  core::SessionResult result;
  core::CandidateEvaluation candidate;
  candidate.k = k;
  candidate.clustering.k = k;
  candidate.clustering.centroids =
      transform::Matrix(static_cast<size_t>(k), dims, 0.5);
  result.optimizer.candidates.push_back(std::move(candidate));
  result.optimizer.best_index = 0;
  for (size_t i = 0; i < dims; ++i) {
    result.mining_exam_types.push_back(static_cast<int32_t>(i));
  }
  return result;
}

TEST_F(FaultInjectionTest, IngestAppendFaultLeavesPriorGenerationReadable) {
  service::CohortStoreOptions options;
  options.directory = MakeScratchDir("ingest_append");
  service::CohortStore store(options);

  std::vector<dataset::RawExamRecord> batch1 = {IngestRow(0, "ecg", 1),
                                                IngestRow(1, "xray", 2)};
  std::vector<dataset::RawExamRecord> batch2 = {IngestRow(2, "mri", 3)};
  ASSERT_TRUE(store.Ingest("ward", batch1).ok());
  const std::string committed = store.Snapshot("ward").value().ToCsv();

  {
    ScopedFailpoint torn("service.ingest.append",
                         OneShotError(StatusCode::kUnavailable, "disk gone"));
    auto failed = store.Ingest("ward", batch2);
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  }

  // The failed batch never happened: generation 1 stays fully readable
  // in memory and from disk.
  EXPECT_EQ(store.stats().generations, 1);
  EXPECT_EQ(store.Snapshot("ward").value().ToCsv(), committed);
  service::CohortStore reloaded(options);
  EXPECT_EQ(reloaded.stats().generations, 1);
  EXPECT_EQ(reloaded.Snapshot("ward").value().ToCsv(), committed);

  // With the fault cleared the same batch commits cleanly.
  auto retried = store.Ingest("ward", batch2);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value().generation, 2);
}

TEST_F(FaultInjectionTest, IngestSnapshotFaultRollsBackTheWholeBatch) {
  service::CohortStoreOptions options;
  options.directory = MakeScratchDir("ingest_snapshot");
  service::CohortStore store(options);

  std::vector<dataset::RawExamRecord> batch1 = {IngestRow(0, "ecg", 1)};
  std::vector<dataset::RawExamRecord> batch2 = {IngestRow(1, "mri", 5)};
  ASSERT_TRUE(store.Ingest("ward", batch1).ok());
  const std::string committed = store.Snapshot("ward").value().ToCsv();

  {
    // The records hit disk but the manifest rename fails — the exact
    // crash window the committed_bytes prefix protects.
    ScopedFailpoint torn("service.ingest.snapshot",
                         OneShotError(StatusCode::kDataLoss, "rename lost"));
    auto failed = store.Ingest("ward", batch2);
    EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
  }

  EXPECT_EQ(store.stats().generations, 1);
  EXPECT_EQ(store.Snapshot("ward")->num_records(), 1u);
  EXPECT_EQ(store.Snapshot("ward").value().ToCsv(), committed);
  // A fresh store reads only the committed prefix: the appended but
  // never-manifested bytes are invisible.
  {
    service::CohortStore reloaded(options);
    EXPECT_EQ(reloaded.stats().generations, 1);
    EXPECT_EQ(reloaded.Snapshot("ward").value().ToCsv(), committed);
  }

  // The next ingest truncates the residue and commits batch-atomically.
  ASSERT_TRUE(store.Ingest("ward", batch2).ok());
  dataset::ExamLog direct;
  ASSERT_TRUE(direct.Append(batch1).ok());
  ASSERT_TRUE(direct.Append(batch2).ok());
  service::CohortStore reloaded(options);
  EXPECT_EQ(reloaded.Snapshot("ward").value().ToCsv(), direct.ToCsv());
  EXPECT_EQ(reloaded.stats().generations, 2);
}

TEST_F(FaultInjectionTest, WarmSnapshotFaultDegradesNextJobToCold) {
  service::CohortStoreOptions options;
  options.directory = MakeScratchDir("ingest_warm");
  service::CohortStore store(options);
  ASSERT_TRUE(store.Ingest("ward", {IngestRow(0, "ecg", 1)}).ok());

  {
    ScopedFailpoint torn("service.ingest.snapshot",
                         OneShotError(StatusCode::kUnavailable, "no space"));
    store.OnAnalysisCommitted("ward", 1, 1, FakeAnalysis(3, 4));
  }

  // The warm state was dropped, not half-installed: the next job runs
  // cold — degraded, never wrong.
  EXPECT_EQ(store.stats().snapshot_failures, 1);
  auto job = store.BuildCohortJob("ward");
  ASSERT_TRUE(job.ok());
  EXPECT_TRUE(job.value().options.warm.centroids.empty());

  // A later successful commit installs warm state normally.
  store.OnAnalysisCommitted("ward", 1, 1, FakeAnalysis(3, 4));
  auto warmed = store.BuildCohortJob("ward");
  ASSERT_TRUE(warmed.ok());
  EXPECT_FALSE(warmed.value().options.warm.centroids.empty());
}

TEST_F(FaultInjectionTest, IngestAdaptFaultFallsBackToColdJob) {
  service::CohortStore store(service::CohortStoreOptions{});
  ASSERT_TRUE(store.Ingest("ward", {IngestRow(0, "ecg", 1)}).ok());
  store.OnAnalysisCommitted("ward", 1, 1, FakeAnalysis(3, 4));

  {
    ScopedFailpoint refused("service.ingest.adapt",
                            OneShotError(StatusCode::kUnavailable, "refused"));
    auto cold = store.BuildCohortJob("ward");
    ASSERT_TRUE(cold.ok());
    EXPECT_TRUE(cold.value().options.warm.centroids.empty());
    EXPECT_EQ(store.stats().cold_fallbacks, 1);
  }

  // The warm state itself survived: once the failpoint clears, the
  // next job warms up again.
  auto warm = store.BuildCohortJob("ward");
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm.value().options.warm.centroids.empty());
  EXPECT_EQ(store.stats().warm_starts, 1);
}

TEST_F(FaultInjectionSessionTest, AllStagesRecordedInPipelineOrder) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  auto result = session.Run(cohort_.log, &cohort_.taxonomy, FastOptions());
  ASSERT_TRUE(result.ok());
  std::vector<std::string> order;
  for (const core::StageOutcome& outcome : result->stages) {
    order.push_back(outcome.stage);
    EXPECT_EQ(outcome.state, core::StageState::kOk) << outcome.stage;
  }
  EXPECT_EQ(order, (std::vector<std::string>{
                       "characterize", "transform", "partial_mining",
                       "optimizer", "knowledge", "pattern_mining",
                       "ranking", "kdb_store"}));
}

}  // namespace
}  // namespace adahealth
