// Primary → follower replication of committed analysis results.
//
// Each shard primary owns a LogShipper: every result the scheduler
// commits to its cache (with a cache directory, one entry of its
// `result_cache.log` store log) is enqueued here and streamed to the
// shard's follower as `replicate` verbs over the loopback NDJSON
// protocol. The follower inserts each entry into its own result cache
// and persists it through the same crash-safe store log, so on primary
// death the promoted follower answers re-driven jobs from the
// replicated cache instead of re-running the session — the
// no-double-run half of the failover invariant (the router's re-drive
// is the no-lost half).
//
// Catch-up: whenever the shipper (re)connects — a follower that
// started late, restarted, or dropped the link — it first streams a
// full snapshot of the primary's cache (most recent first, so a
// smaller follower budget keeps the hottest entries) before the live
// tail. Combined with the follower's own replay of its cache log at
// boot, a follower is consistent after any crash order.
//
// The link is one AnalysisClient (5 s receive deadline) shared by
// catch-up and the live tail; each entry is one `replicate` Call.
//
// Delivery is at-least-once; `replicate` application is idempotent
// (cache Insert refreshes an existing fingerprint), so duplicates are
// harmless. The ship loop never blocks a scheduler worker: Enqueue is
// a bounded queue append (oldest entries are dropped — and counted —
// on overflow; the next reconnect snapshot re-covers them).
//
// Failpoints: "service.replication.send" before every wire send.
#ifndef ADAHEALTH_SERVICE_REPLICATION_H_
#define ADAHEALTH_SERVICE_REPLICATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "service/client.h"
#include "service/result_cache.h"

namespace adahealth {
namespace service {

/// Pending-entry bound; Enqueue drops the oldest entry beyond it.
inline constexpr size_t kReplicationMaxQueue = 1024;
/// Backoff between reconnect attempts while the follower is down grows
/// exponentially from the first to the second.
inline constexpr double kReconnectBackoffMillis = 25.0;
inline constexpr double kMaxReconnectBackoffMillis = 1000.0;

/// Point-in-time replication counters (exact, per-shipper).
struct ReplicationStats {
  int64_t shipped = 0;        // Entries acknowledged by the follower.
  int64_t send_failures = 0;  // Failed sends (entry requeued).
  int64_t reconnects = 0;     // Connections established (first included).
  int64_t dropped = 0;        // Queue-overflow drops.
  size_t queue_depth = 0;
  bool connected = false;
};

/// Streams committed cache entries to a follower on a background
/// thread. Thread-safe; Start/Stop idempotent.
class LogShipper {
 public:
  /// `snapshot` is called on every (re)connect to obtain the full
  /// cache contents for catch-up; wire it to ResultCache::Entries().
  using SnapshotProvider = std::function<std::vector<CachedAnalysis>()>;

  /// Ships to the follower's NDJSON server on loopback `follower_port`.
  LogShipper(uint16_t follower_port, SnapshotProvider snapshot);
  ~LogShipper();  // Stop()s.

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  /// Starts the ship thread (no-op when already running).
  void Start() ADA_EXCLUDES(mutex_);

  /// Stops the ship thread. Entries still queued are abandoned — the
  /// snapshot on the next Start()'s connect re-covers them.
  void Stop() ADA_EXCLUDES(mutex_);

  /// Appends one committed entry to the ship queue (never blocks on
  /// the network). Called from scheduler workers via the
  /// on_result_committed hook.
  void Enqueue(CachedAnalysis entry) ADA_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and the last entry was
  /// acknowledged, or `timeout_millis` elapses; returns whether the
  /// queue drained.
  // ada-lint: allow(unreached-symbol) replication_test and router_test
  // wait for shipped entries with it.
  [[nodiscard]] bool WaitUntilDrained(double timeout_millis)
      ADA_EXCLUDES(mutex_);

  [[nodiscard]] ReplicationStats stats() const ADA_EXCLUDES(mutex_);

 private:
  void ShipLoop() ADA_EXCLUDES(mutex_);
  /// One connect + snapshot attempt. Returns the connected client
  /// (nullopt on failure).
  [[nodiscard]] std::optional<AnalysisClient> ConnectAndCatchUp()
      ADA_EXCLUDES(mutex_);
  /// Sends one entry and reads the acknowledgement.
  [[nodiscard]] common::Status ShipEntry(AnalysisClient& follower,
                                         const CachedAnalysis& entry);

  const uint16_t follower_port_;
  const SnapshotProvider snapshot_;

  mutable common::Mutex mutex_;
  common::CondVar wake_;     // New entries or stop.
  common::CondVar drained_;  // Queue emptied (WaitUntilDrained).
  std::deque<CachedAnalysis> queue_ ADA_GUARDED_BY(mutex_);
  bool running_ ADA_GUARDED_BY(mutex_) = false;
  bool stopping_ ADA_GUARDED_BY(mutex_) = false;
  /// True while an entry is popped but not yet acknowledged, so
  /// WaitUntilDrained cannot report an empty queue early.
  bool in_flight_ ADA_GUARDED_BY(mutex_) = false;
  ReplicationStats stats_ ADA_GUARDED_BY(mutex_);
  std::thread thread_ ADA_GUARDED_BY(mutex_);
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_REPLICATION_H_
