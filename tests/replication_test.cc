// LogShipper coverage: live shipping of committed results to a
// follower AnalysisServer, snapshot catch-up on (re)connect,
// failpoint-injected send failures with requeue-and-redeliver,
// bounded-queue overflow accounting, and drain semantics while the
// follower is unreachable.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "common/check.h"
#include "common/failpoint.h"
#include "common/status.h"
#include "service/net_socket.h"
#include "service/replication.h"
#include "service/result_cache.h"
#include "service/server.h"

namespace adahealth {
namespace {

using common::StatusCode;

service::CachedAnalysis MakeEntry(int index) {
  service::CachedAnalysis entry;
  entry.fingerprint = "replfp-" + std::to_string(index);
  entry.dataset_id = "repl";
  entry.summary = "summary " + std::to_string(index);
  entry.report = "report body " + std::to_string(index);
  entry.knowledge_items = index;
  return entry;
}

/// Grabs an ephemeral port and releases it — connects to the returned
/// port are refused (modulo an unlikely reuse race, which these tests
/// tolerate by asserting on non-delivery, not on error text).
uint16_t DeadPort() {
  auto listener = service::ServerSocket::Listen(0);
  ADA_CHECK(listener.ok());
  return listener->port();
}

class ReplicationTest : public testing::Test {
 protected:
  void SetUp() override {
    service::ServerOptions options;
    options.role = service::ServerRole::kFollower;
    options.scheduler.max_workers = 1;
    follower_ = std::make_unique<service::AnalysisServer>(std::move(options));
    ASSERT_TRUE(follower_->Start().ok());
  }

  void TearDown() override { follower_->Stop(); }

  size_t FollowerEntries() {
    return follower_->scheduler().cache().entries();
  }

  std::unique_ptr<service::AnalysisServer> follower_;
};

TEST_F(ReplicationTest, ShipsEnqueuedEntryToFollower) {
  service::LogShipper shipper(follower_->port(), [] {
    return std::vector<service::CachedAnalysis>{};
  });
  shipper.Start();
  shipper.Enqueue(MakeEntry(1));
  ASSERT_TRUE(shipper.WaitUntilDrained(10000.0));

  service::ReplicationStats stats = shipper.stats();
  EXPECT_EQ(stats.shipped, 1);
  EXPECT_EQ(stats.send_failures, 0);
  EXPECT_EQ(stats.reconnects, 1);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_TRUE(stats.connected);
  EXPECT_EQ(FollowerEntries(), 1u);
  shipper.Stop();
}

TEST_F(ReplicationTest, SnapshotCatchUpPrecedesLiveTail) {
  // Two entries pre-date the shipper (as if the follower connected
  // late): the first connect must stream them before the live entry.
  std::vector<service::CachedAnalysis> backlog = {MakeEntry(10),
                                                  MakeEntry(11)};
  service::LogShipper shipper(follower_->port(), [backlog] { return backlog; });
  shipper.Start();
  shipper.Enqueue(MakeEntry(12));
  ASSERT_TRUE(shipper.WaitUntilDrained(10000.0));

  EXPECT_EQ(shipper.stats().shipped, 3);
  EXPECT_EQ(FollowerEntries(), 3u);
  shipper.Stop();
}

TEST_F(ReplicationTest, DuplicateDeliveryIsIdempotent) {
  // At-least-once delivery: the same fingerprint shipped twice must
  // refresh, not duplicate, the follower's cache entry.
  service::LogShipper shipper(follower_->port(), [] {
    return std::vector<service::CachedAnalysis>{};
  });
  shipper.Start();
  shipper.Enqueue(MakeEntry(20));
  shipper.Enqueue(MakeEntry(20));
  ASSERT_TRUE(shipper.WaitUntilDrained(10000.0));

  EXPECT_EQ(shipper.stats().shipped, 2);
  EXPECT_EQ(FollowerEntries(), 1u);
  shipper.Stop();
}

TEST_F(ReplicationTest, NewCohortGenerationSupersedesOldOnFollower) {
  // Streaming cohorts: replicated entries carry the cohort/generation
  // versioning fields, and the follower's cache applies the same
  // supersede rule as the primary — shipping generation 2 evicts the
  // replicated generation 1 exactly once.
  service::LogShipper shipper(follower_->port(), [] {
    return std::vector<service::CachedAnalysis>{};
  });
  shipper.Start();

  service::CachedAnalysis generation1 = MakeEntry(60);
  generation1.fingerprint = "ward@1/replfp";
  generation1.cohort = "ward";
  generation1.generation = 1;
  service::CachedAnalysis generation2 = MakeEntry(61);
  generation2.fingerprint = "ward@2/replfp";
  generation2.cohort = "ward";
  generation2.generation = 2;
  shipper.Enqueue(generation1);
  shipper.Enqueue(generation2);
  ASSERT_TRUE(shipper.WaitUntilDrained(10000.0));

  EXPECT_EQ(shipper.stats().shipped, 2);
  service::ResultCache& cache = follower_->scheduler().cache();
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.superseded(), 1);
  EXPECT_FALSE(cache.Lookup("ward@1/replfp").has_value());
  auto latest = cache.Lookup("ward@2/replfp");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->cohort, "ward");
  EXPECT_EQ(latest->generation, 2);
  shipper.Stop();
}

TEST_F(ReplicationTest, SendFailureRequeuesAndRedelivers) {
  // The failpoint kills the first wire send; the shipper must count
  // the failure, requeue the entry, reconnect, and deliver it.
  service::LogShipper shipper(follower_->port(), [] {
    return std::vector<service::CachedAnalysis>{};
  });
  common::ScopedFailpoint broken_wire(
      "service.replication.send",
      common::OneShotError(StatusCode::kUnavailable, "injected send loss"));
  shipper.Start();
  shipper.Enqueue(MakeEntry(30));
  ASSERT_TRUE(shipper.WaitUntilDrained(10000.0));

  service::ReplicationStats stats = shipper.stats();
  EXPECT_EQ(stats.send_failures, 1);
  EXPECT_EQ(stats.shipped, 1);
  EXPECT_GE(stats.reconnects, 2);  // Initial connect + post-failure.
  EXPECT_EQ(FollowerEntries(), 1u);
  shipper.Stop();
}

TEST(ReplicationQueueTest, OverflowDropsOldestAndCounts) {
  // No Start(): the queue fills without a ship loop draining it.
  service::LogShipper shipper(DeadPort(), [] {
    return std::vector<service::CachedAnalysis>{};
  });
  for (size_t i = 0; i <= service::kReplicationMaxQueue; ++i) {
    shipper.Enqueue(MakeEntry(static_cast<int>(i)));
  }

  service::ReplicationStats stats = shipper.stats();
  EXPECT_EQ(stats.dropped, 1);
  EXPECT_EQ(stats.queue_depth, service::kReplicationMaxQueue);
  EXPECT_EQ(stats.shipped, 0);
}

TEST(ReplicationQueueTest, DrainTimesOutWhileFollowerUnreachable) {
  service::LogShipper shipper(DeadPort(), [] {
    return std::vector<service::CachedAnalysis>{};
  });
  shipper.Start();
  shipper.Enqueue(MakeEntry(50));
  EXPECT_FALSE(shipper.WaitUntilDrained(200.0));

  service::ReplicationStats stats = shipper.stats();
  EXPECT_FALSE(stats.connected);
  EXPECT_EQ(stats.shipped, 0);
  EXPECT_EQ(stats.queue_depth, 1u);
  shipper.Stop();
}

}  // namespace
}  // namespace adahealth
