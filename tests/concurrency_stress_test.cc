// Race-stress tests for the concurrency claims in common/: ThreadPool
// (enqueue during shutdown, exception propagation, concurrent
// ParallelFor), MetricsRegistry (concurrent instrument creation,
// updates, Reset, and JSON export), and whole analysis sessions nested
// inside a saturated ThreadPool::Shared(). The assertions matter in every
// build mode, but the tests earn their keep under
// -DADA_SANITIZE=thread, where TSAN checks the interleavings
// themselves; keep iteration counts modest so the TSAN build stays
// fast.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/report.h"
#include "core/session.h"
#include "dataset/synthetic_cohort.h"
#include "kdb/database.h"

namespace adahealth {
namespace common {
namespace {

TEST(ThreadPoolStressTest, EnqueueDuringShutdownNeverLosesAcceptedTasks) {
  // Producers race TrySchedule against Shutdown. The invariant: every
  // task TrySchedule accepted is executed (Shutdown drains the queue);
  // rejected tasks are dropped cleanly. The pool object outlives the
  // producers — only the *shutdown* may race, not the destructor.
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 200;
  for (int round = 0; round < 5; ++round) {
    std::atomic<int64_t> accepted{0};
    std::atomic<int64_t> executed{0};
    std::atomic<bool> start{false};
    ThreadPool pool(3);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        while (!start.load()) std::this_thread::yield();
        for (int i = 0; i < kTasksPerProducer; ++i) {
          if (pool.TrySchedule([&executed] { executed.fetch_add(1); })) {
            accepted.fetch_add(1);
          }
        }
      });
    }
    start.store(true);
    pool.Shutdown();  // Races the producers' TrySchedule calls.
    for (auto& producer : producers) producer.join();
    EXPECT_EQ(executed.load(), accepted.load());
  }
}

TEST(ThreadPoolStressTest, ExceptionsFromConcurrentTasksAreAllCounted) {
  ThreadPool pool(4);
  constexpr int kTasks = 400;
  std::atomic<int64_t> completed{0};
  for (int i = 0; i < kTasks; ++i) {
    if (i % 4 == 0) {
      pool.Schedule([] { throw std::runtime_error("stress failure"); });
    } else {
      pool.Schedule([&completed] { completed.fetch_add(1); });
    }
  }
  pool.Wait();
  EXPECT_EQ(completed.load(), kTasks - kTasks / 4);
  EXPECT_EQ(pool.failed_tasks(), static_cast<size_t>(kTasks / 4));
  EXPECT_EQ(pool.first_failure_message(), "stress failure");
}

TEST(ThreadPoolStressTest, ConcurrentParallelForsShareOnePool) {
  ThreadPool pool(4);
  constexpr size_t kRange = 512;
  std::atomic<int64_t> total{0};
  std::vector<std::thread> drivers;
  drivers.reserve(3);
  for (int d = 0; d < 3; ++d) {
    drivers.emplace_back([&] {
      ParallelFor(pool, 0, kRange, [&](size_t) { total.fetch_add(1); });
    });
  }
  for (auto& driver : drivers) driver.join();
  EXPECT_EQ(total.load(), static_cast<int64_t>(3 * kRange));
}

TEST(MetricsStressTest, ConcurrentCounterGaugeHistogramUpdates) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      // Mix hits on shared instruments (contended atomics) with
      // first-use creation of per-thread ones (contended map insert).
      Counter& shared = registry.GetCounter("stress/shared");
      for (int i = 0; i < kIterations; ++i) {
        shared.Increment();
        registry.GetCounter("stress/thread_" + std::to_string(t))
            .Increment();
        registry.GetGauge("stress/gauge").Set(static_cast<double>(i));
        registry.GetHistogram("stress/latency")
            .Record(1e-6 * static_cast<double>(i % 100));
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(registry.GetCounter("stress/shared").value(),
            static_cast<int64_t>(kThreads) * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(
        registry.GetCounter("stress/thread_" + std::to_string(t)).value(),
        kIterations);
  }
  EXPECT_EQ(registry.GetHistogram("stress/latency").count(),
            static_cast<int64_t>(kThreads) * kIterations);
}

TEST(MetricsStressTest, JsonExportRacesUpdatesAndReset) {
  // Writers update instruments while one thread repeatedly exports the
  // registry to JSON and another Reset()s it; the exported snapshots
  // must always be structurally valid, whatever the interleaving.
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> workers;
  workers.reserve(kWriters + 2);
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&registry, &stop] {
      while (!stop.load()) {
        registry.GetCounter("export/counter").Increment();
        registry.GetGauge("export/gauge").Set(1.0);
        registry.GetHistogram("export/latency").Record(1e-5);
      }
    });
  }
  std::atomic<int> exports{0};
  workers.emplace_back([&registry, &stop, &exports] {
    while (!stop.load()) {
      Json snapshot = registry.ToJson();
      ASSERT_TRUE(snapshot.is_object());
      ASSERT_NE(snapshot.Find("counters"), nullptr);
      ASSERT_NE(snapshot.Find("histograms"), nullptr);
      exports.fetch_add(1);
    }
  });
  workers.emplace_back([&registry, &stop] {
    while (!stop.load()) {
      registry.Reset();
      std::this_thread::yield();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& worker : workers) worker.join();
  EXPECT_GT(exports.load(), 0);
}

TEST(MetricsStressTest, PipelineMetricsUnderThreadPoolLoad) {
  // The realistic composition: pool workers record into the default
  // registry the way optimizer/k-means stages do (ScopedTimer +
  // counters), while the driver thread polls ToJson.
  MetricsRegistry registry;
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    pool.Schedule([&registry] {
      ScopedTimer timer(registry, "stress/task_seconds");
      registry.GetCounter("stress/tasks").Increment();
    });
    if (i % 16 == 0) {
      Json snapshot = registry.ToJson();
      ASSERT_TRUE(snapshot.is_object());
    }
  }
  pool.Wait();
  EXPECT_EQ(registry.GetCounter("stress/tasks").value(), kTasks);
  EXPECT_EQ(registry.GetHistogram("stress/task_seconds").count(), kTasks);
}

core::SessionOptions NestedSessionOptions(int index) {
  core::SessionOptions options;
  options.dataset_id = "nested-" + std::to_string(index);
  options.transform.sample_fraction = 0.4;
  options.transform.proxy_k = 4;
  options.partial.fractions = {0.3, 0.6, 1.0};
  options.partial.ks = {3, 4};
  options.partial.kmeans.max_iterations = 20;
  options.optimizer.candidate_ks = {3, 4, 6};
  options.optimizer.cv_folds = 3;
  options.pattern_mining.min_support_level0 = 0.4;
  options.pattern_mining.min_support_level1 = 0.5;
  options.pattern_mining.min_support_level2 = 0.6;
  options.pattern_mining.max_itemset_size = 3;
  return options;
}

std::string RunSessionReport(const dataset::Cohort& cohort,
                             const core::SessionOptions& options) {
  kdb::Database db;
  core::AnalysisSession session(&db);
  auto result = session.Run(cohort.log, &cohort.taxonomy, options);
  if (!result.ok()) return "failed: " + result.status().ToString();
  return core::RenderSessionReport(*result, options.dataset_id);
}

TEST(SharedPoolNestingStressTest, SessionsInsideSaturatedSharedPoolMatchDirect) {
  // The service scheduler runs sessions on ThreadPool::Shared()
  // workers, and a session fans its k-means sweeps and partial-mining
  // steps out on that same pool. Three sessions start from pool tasks
  // at once; one blocker per worker queued behind them holds every
  // free worker until all three finish, so the nested fan-outs' helper
  // tasks queue behind the blockers and each session must complete on
  // its own worker. Every report must equal its direct run's.
  constexpr int kSessions = 3;
  std::vector<dataset::Cohort> cohorts;
  std::vector<std::string> direct;
  for (int i = 0; i < kSessions; ++i) {
    dataset::CohortConfig config = dataset::TestScaleConfig();
    config.num_patients = 120 + 30 * i;
    config.seed = 300 + static_cast<uint64_t>(i);
    auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
    ASSERT_TRUE(cohort.ok());
    cohorts.push_back(std::move(cohort).value());
    direct.push_back(RunSessionReport(cohorts.back(), NestedSessionOptions(i)));
    ASSERT_EQ(direct.back().rfind("failed: ", 0), std::string::npos)
        << direct.back();
  }

  ThreadPool& pool = ThreadPool::Shared();
  std::vector<std::string> pooled(kSessions);
  std::atomic<int> finished{0};
  for (int i = 0; i < kSessions; ++i) {
    pool.Schedule([&, i] {
      pooled[static_cast<size_t>(i)] =
          RunSessionReport(cohorts[static_cast<size_t>(i)],
                           NestedSessionOptions(i));
      finished.fetch_add(1);
    });
  }
  std::atomic<size_t> blockers_done{0};
  for (size_t w = 0; w < pool.num_threads(); ++w) {
    pool.Schedule([&] {
      while (finished.load() < kSessions) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      blockers_done.fetch_add(1);
    });
  }
  while (blockers_done.load() < pool.num_threads()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(pooled[static_cast<size_t>(i)], direct[static_cast<size_t>(i)])
        << "session " << i;
  }
}

}  // namespace
}  // namespace common
}  // namespace adahealth
