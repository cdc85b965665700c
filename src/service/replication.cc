#include "service/replication.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "common/json.h"
#include "common/logging.h"

namespace adahealth {
namespace service {

using common::Json;
using common::MutexLock;
using common::Status;

namespace {

/// Reads on the replication link never park forever against a wedged
/// follower: a stalled acknowledgement fails the send, the entry is
/// requeued, and the next reconnect's snapshot re-covers it.
constexpr double kAckTimeoutMillis = 5000.0;

}  // namespace

LogShipper::LogShipper(uint16_t follower_port, SnapshotProvider snapshot)
    : follower_port_(follower_port), snapshot_(std::move(snapshot)) {}

LogShipper::~LogShipper() { Stop(); }

void LogShipper::Start() {
  MutexLock lock(&mutex_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { ShipLoop(); });
}

void LogShipper::Stop() {
  std::thread finished;
  {
    MutexLock lock(&mutex_);
    if (!running_) return;
    stopping_ = true;
    wake_.NotifyAll();
    finished = std::move(thread_);
  }
  // Joined outside the lock: the ship loop takes mutex_ on its way out.
  finished.join();
  MutexLock lock(&mutex_);
  running_ = false;
  stats_.connected = false;
}

void LogShipper::Enqueue(CachedAnalysis entry) {
  MutexLock lock(&mutex_);
  queue_.push_back(std::move(entry));
  while (queue_.size() > kReplicationMaxQueue) {
    // Oldest-first drops: the next reconnect snapshot re-covers a
    // dropped entry, while the newest entries are the ones a promoted
    // follower is most likely to be asked about first.
    queue_.pop_front();
    ++stats_.dropped;
  }
  stats_.queue_depth = queue_.size();
  wake_.NotifyAll();
}

bool LogShipper::WaitUntilDrained(double timeout_millis) {
  MutexLock lock(&mutex_);
  return drained_.WaitFor(mutex_, timeout_millis, [this]() ADA_REQUIRES(
                                      mutex_) {
    return queue_.empty() && !in_flight_;
  });
}

ReplicationStats LogShipper::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

void LogShipper::ShipLoop() {
  std::optional<AnalysisClient> follower;
  double backoff_millis = kReconnectBackoffMillis;
  for (;;) {
    {
      MutexLock lock(&mutex_);
      wake_.Wait(mutex_, [this]() ADA_REQUIRES(mutex_) {
        return stopping_ || !queue_.empty();
      });
      if (stopping_) return;
    }
    if (!follower.has_value()) {
      follower = ConnectAndCatchUp();
      if (!follower.has_value()) {
        MutexLock lock(&mutex_);
        // The backoff sleep stays responsive to Stop().
        if (wake_.WaitFor(mutex_, backoff_millis,
                          [this]() ADA_REQUIRES(mutex_) { return stopping_; })) {
          return;
        }
        backoff_millis = std::min(backoff_millis * 2.0,
                                  kMaxReconnectBackoffMillis);
        continue;
      }
      backoff_millis = kReconnectBackoffMillis;
    }
    CachedAnalysis entry;
    {
      MutexLock lock(&mutex_);
      if (stopping_) return;
      if (queue_.empty()) continue;  // Raced with a snapshot drain.
      entry = std::move(queue_.front());
      queue_.pop_front();
      in_flight_ = true;
      stats_.queue_depth = queue_.size();
    }
    Status shipped = ShipEntry(*follower, entry);
    {
      MutexLock lock(&mutex_);
      in_flight_ = false;
      if (shipped.ok()) {
        ++stats_.shipped;
        if (queue_.empty()) drained_.NotifyAll();
      } else {
        ++stats_.send_failures;
        stats_.connected = false;
        // At-least-once: the failed entry goes back to the front so the
        // reconnect ships it (again after the snapshot — idempotent).
        queue_.push_front(std::move(entry));
        stats_.queue_depth = queue_.size();
      }
    }
    if (!shipped.ok()) {
      ADA_LOG(kWarning) << "replication: ship failed, reconnecting: "
                        << shipped.ToString();
      follower.reset();
    }
  }
}

std::optional<AnalysisClient> LogShipper::ConnectAndCatchUp() {
  common::StatusOr<AnalysisClient> connected =
      AnalysisClient::Connect(follower_port_, kAckTimeoutMillis);
  if (!connected.ok()) return std::nullopt;
  AnalysisClient follower = std::move(connected).value();
  // Snapshot catch-up: ship the full cache (most recent first) before
  // the live tail, so a follower that was down — or never saw the
  // dropped-on-overflow entries — converges on this connection.
  std::vector<CachedAnalysis> snapshot =
      snapshot_ ? snapshot_() : std::vector<CachedAnalysis>();
  for (const CachedAnalysis& entry : snapshot) {
    Status shipped = ShipEntry(follower, entry);
    if (!shipped.ok()) {
      ADA_LOG(kWarning) << "replication: catch-up failed: "
                        << shipped.ToString();
      MutexLock lock(&mutex_);
      ++stats_.send_failures;
      return std::nullopt;
    }
    MutexLock lock(&mutex_);
    ++stats_.shipped;
  }
  MutexLock lock(&mutex_);
  ++stats_.reconnects;
  stats_.connected = true;
  return follower;
}

Status LogShipper::ShipEntry(AnalysisClient& follower,
                             const CachedAnalysis& entry) {
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.replication.send"));
  Json::Object request;
  request["verb"] = Json("replicate");
  request["entry"] = entry.ToJson();
  return follower.Call(request).status();
}

}  // namespace service
}  // namespace adahealth
