// The cluster front door: one router process that consistent-hashes
// jobs across N shard AnalysisServer processes and survives the death
// of any shard primary.
//
// Topology (tools/ada_router wires it from flags):
//
//     client ──NDJSON──▶ router ──NDJSON──▶ shard 0 primary ──replicate──▶ shard 0 follower
//                          │
//                          └────NDJSON──▶ shard 1 primary ──replicate──▶ shard 1 follower
//
// Routing: `submit` bodies are parsed with the same BuildJobRequest /
// DatasetFingerprint code the shards run, so the router and the shard
// compute the identical fingerprint; the fingerprint picks a shard on
// a consistent-hash ring (64 virtual nodes per shard),
// which keeps near-identical repeat cohorts — the workload the result
// cache exists for — landing on the same shard's cache slice. The
// router then forwards the client's line with that fingerprint spliced
// in (as text, not re-serialized) as the cluster-internal
// "route_fingerprint" member, so a CSV upload is parsed once per
// cluster: the shard answers a cached fingerprint at admission without
// parsing the dataset, and on a miss parses it and fails the submit
// with INTERNAL if its own fingerprint differs.
// Streaming-cohort traffic (the `ingest` verb and cohort submits)
// routes on the cohort *name* instead ("cohort/<name>" on the same
// ring): a cohort's accumulated records live on exactly one shard, so
// every ingest batch and every delta job lands where the data is.
// Cohort records are not replicated across shards — a shard death
// loses its cohorts' in-flight generations unless the shard persisted
// them to its cohort directory (an explicit non-goal here; see
// DESIGN.md). The
// router speaks the same NDJSON protocol to clients as a single shard
// does: job ids are rewritten (global ↔ shard-local) in both
// directions and everything else passes through verbatim, so
// `ada_client` works unchanged against a router or a bare shard.
//
// Failure handling: a background prober health-checks every shard;
// `probe_failures_before_failover` consecutive probe failures — or a
// connection error while forwarding — trigger failover. Failover is
// verified (one fresh connect+ping must also fail, so a single dropped
// packet cannot double-run jobs), serialized per shard, and
// generation-stamped for idempotence. The shard's follower is sent the
// `promote` verb, every job routed to the shard is re-driven against
// it, and the shard's active port flips. An in-flight job re-submits
// its forwarded line and re-runs unless its result was replicated; a
// finished csv/synthetic job re-submits only its fingerprint (the
// router drops the upload once it sees the job terminal) and completes
// as a cache hit on the follower, or answers UNAVAILABLE "result of
// job N was not replicated ...; resubmit" when the follower does not
// hold it. Execution is at-least-once, client-visible completion per
// job id is exactly-once, and reports stay byte-identical because
// sessions are deterministic.
// A shard with no follower left is marked dead: its jobs fail with
// UNAVAILABLE and new submits ride the ring to the next live shard —
// the cluster keeps serving with N-1 partitions.
//
// Retention: the routing table keeps at most kRetainedJobs entries plus
// its in-flight jobs; finished routes are retired oldest first, and a
// retired id answers NOT_FOUND "job N expired". A route the router
// still holds in flight whose job the shard has already retired answers
// the same, with the client's id, and is queued for retirement too.
//
// Verbs handled locally: ping, health (router + per-shard liveness),
// stats (cross-shard aggregation with a "totals" roll-up), shutdown
// (cascades to every live shard endpoint). promote/replicate, and a
// "route_fingerprint" field on any verb, are cluster-internal and
// rejected at the front door: a shard trusts the field, so only the
// router may set it.
//
// Every shard call (forward, probe, promote, re-drive, stats fan-out,
// shutdown cascade) is one ForwardRaw: a fresh AnalysisClient
// connection and one Exchange. The router opens no socket of its own.
//
// Failpoints: "service.shard.promote" (shard side) makes promotion
// fail, exercising the shard-death path.
#ifndef ADAHEALTH_SERVICE_ROUTER_H_
#define ADAHEALTH_SERVICE_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/sync.h"
#include "service/client.h"
#include "service/net_socket.h"
#include "service/protocol.h"
#include "service/scheduler.h"

namespace adahealth {
namespace service {

/// One shard's process endpoints (loopback ports).
struct ShardEndpoints {
  uint16_t primary_port = 0;
  /// 0 = the shard runs without a replica (a primary death kills the
  /// partition instead of failing over).
  uint16_t follower_port = 0;
};

struct RouterOptions {
  /// Router listen port; 0 = kernel-assigned (see Router::port()).
  uint16_t port = 0;
  std::vector<ShardEndpoints> shards;
  /// Liveness probe cadence per shard.
  double probe_interval_millis = 250.0;
  /// Consecutive probe failures before the prober triggers failover.
  int probe_failures_before_failover = 3;
};

/// Point-in-time router counters.
struct RouterStats {
  int64_t submitted = 0;   // Routes created (global job ids handed out).
  int64_t completed = 0;   // Routes first seen in a terminal state.
  int64_t forwarded = 0;   // Upstream round-trips attempted.
  int64_t failovers = 0;   // Successful follower promotions.
  int64_t redriven = 0;    // Jobs re-submitted during failovers.
  int64_t dead_shards = 0; // Shards with no endpoint left.
  int64_t retired = 0;     // Finished routes dropped by retention.
};

/// The sharding router. Start() binds the port and spawns the accept
/// and prober threads; each client connection gets a forwarding
/// thread. The router holds no job state beyond the routing table, so
/// a blocking thread-per-connection design is proportionate here — the
/// epoll machinery stays in the shards, which hold the real work. It
/// also keeps each submit's CSV parse and fingerprint on its client's
/// own thread: on a single event-loop thread that per-request work
/// would serialize across clients.
class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();  // Stop()s.

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the listener, builds the hash ring, starts the threads.
  /// INVALID_ARGUMENT when no shards are configured; UNAVAILABLE when
  /// the port cannot be bound; FAILED_PRECONDITION when already
  /// started.
  [[nodiscard]] common::Status Start();

  /// Blocks until a `shutdown` verb (or Stop()) stops the router.
  void Wait();

  /// Signals every thread, joins them, closes every connection.
  /// Idempotent; not callable from a router-owned thread.
  void Stop();

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] RouterStats stats() const;

  /// Shard a fingerprint routes to right now (dead shards skipped);
  /// exposed for tests asserting ring placement.
  [[nodiscard]] size_t ShardFor(const std::string& fingerprint) const
      ADA_EXCLUDES(mutex_);

 private:
  /// Mutable per-shard state. Fields are guarded by the router-wide
  /// data mutex_; failover_mutex (always acquired *before* mutex_)
  /// serializes whole failovers per shard so concurrent transport
  /// failures promote once.
  struct ShardState {
    ShardEndpoints endpoints;
    uint16_t active_port = 0;
    bool using_follower = false;
    bool alive = true;
    /// Bumped on every failover / death; forwarding threads pass the
    /// generation they routed against so a failure report that was
    /// already handled becomes a no-op.
    uint64_t generation = 0;
    int consecutive_probe_failures = 0;
    common::Mutex failover_mutex;
  };

  /// Routing-table entry for one client-visible (global) job id.
  struct JobRoute {
    size_t shard = 0;
    JobId local_id = 0;
    /// The line a failover re-drive sends. In flight: the submit line
    /// as forwarded (a csv/synthetic submit carries its
    /// route_fingerprint), which can re-run the job. Once terminal:
    /// terminal_line, which holds no dataset.
    std::string redrive_line;
    /// The re-drive line for after the job is terminal: for a
    /// csv/synthetic submit, the client body without its dataset plus
    /// route_fingerprint (a follower answers it from its replicated
    /// cache or not at all); for a cohort submit, the client line.
    /// Moved into redrive_line when the router first sees the job
    /// terminal.
    std::string terminal_line;
    /// The submit carried a csv/synthetic dataset.
    bool uploaded = false;
    bool terminal = false;
    /// Non-OK once a failover could not re-drive this job; job verbs
    /// answer it directly instead of forwarding.
    common::Status redrive_failure;
  };

  /// One accepted client connection served by its own thread.
  struct ClientConn {
    FileDescriptor fd;
    common::Mutex mutex;
    /// Registered while a forward round-trip is in flight so Stop()
    /// can Interrupt() the upstream read too.
    const AnalysisClient* upstream ADA_GUARDED_BY(mutex) = nullptr;
    bool shutdown ADA_GUARDED_BY(mutex) = false;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ProbeLoop();
  void ServeClient(ClientConn* conn);
  /// Reaps finished connection threads (called from the accept loop).
  void ReapConnections();

  /// Dispatches one request line to a local handler or a shard.
  [[nodiscard]] std::string HandleLine(ClientConn* conn,
                                       const std::string& line);
  /// submit, ingest, status, result, cancel: one forward-attempt loop
  /// that resolves the shard from the ring key or the job's route,
  /// forwards, and runs failover on a transport failure before trying
  /// again (ingest: one attempt; job ids rewritten global ↔ local).
  [[nodiscard]] std::string HandleForward(ClientConn* conn,
                                          const Request& request,
                                          const std::string& line);
  [[nodiscard]] std::string HandleStats(ClientConn* conn);
  [[nodiscard]] std::string HandleHealth();
  [[nodiscard]] std::string HandleShutdown(ClientConn* conn);

  /// One fresh-connection Exchange with a shard port, counted in
  /// RouterStats::forwarded. `conn` (nullable) registers the upstream
  /// client for Stop().
  [[nodiscard]] common::StatusOr<std::string> ForwardRaw(
      ClientConn* conn, uint16_t port, std::string_view line,
      double recv_timeout_millis);

  /// Ring lookup starting at the fingerprint's hash, skipping dead
  /// shards.
  [[nodiscard]] size_t ShardForLocked(const std::string& fingerprint) const
      ADA_REQUIRES(mutex_);

  /// Verified, serialized, generation-stamped failover for `shard`.
  void HandleShardFailure(size_t shard, uint64_t observed_generation);
  /// True when a fresh connect+ping round-trip to `port` succeeds.
  [[nodiscard]] bool ProbePort(uint16_t port);
  /// Promotes the follower and re-drives this shard's jobs; returns
  /// false when the follower is unreachable or rejects promotion.
  [[nodiscard]] bool PromoteAndRedrive(ShardState& state, size_t shard)
      ADA_EXCLUDES(mutex_);

  /// Marks terminal responses and rewrites their job id back to
  /// `global_id`; returns the line to send to the client. A shard's
  /// "job `local_id` expired" answer goes through ExpireRoute.
  [[nodiscard]] std::string RewriteShardResponse(
      const std::string& response_line, JobId global_id, JobId local_id);

  /// The shard retired the route's job before the router saw it
  /// terminal: fails the route with NOT_FOUND "job `global_id`
  /// expired" (queued for retirement, nothing left to re-drive) and
  /// returns that answer.
  [[nodiscard]] std::string ExpireRoute(JobId global_id)
      ADA_EXCLUDES(mutex_);

  /// First terminal sighting of a route: counts it completed, swaps in
  /// its dataset-free re-drive line and queues it for retirement.
  void MarkTerminalLocked(JobId id, JobRoute& route) ADA_REQUIRES(mutex_);
  /// A failover could not re-drive the route: job verbs answer
  /// `failure` from now on, and the route is queued for retirement.
  void FailRouteLocked(JobId id, JobRoute& route, common::Status failure)
      ADA_REQUIRES(mutex_);

  /// Signals stop (idempotent, callable from router threads); joining
  /// stays in Stop().
  void SignalStop();

  const RouterOptions options_;

  ServerSocket listener_;
  uint16_t port_ = 0;
  std::chrono::steady_clock::time_point start_time_{};

  /// Consistent-hash ring: (vnode hash, shard index), sorted by hash.
  /// Built once in Start(); immutable afterwards.
  std::vector<std::pair<uint64_t, size_t>> ring_;

  mutable common::Mutex mutex_;
  std::vector<std::unique_ptr<ShardState>> shards_;  // Vector immutable;
                                                     // fields guarded.
  std::map<JobId, JobRoute> routes_ ADA_GUARDED_BY(mutex_);
  /// Ids of routes that are terminal or failed (they never change
  /// again), in that order; admission retires them past kRetainedJobs.
  std::deque<JobId> finished_ ADA_GUARDED_BY(mutex_);
  JobId next_job_id_ ADA_GUARDED_BY(mutex_) = 1;
  RouterStats stats_ ADA_GUARDED_BY(mutex_);

  common::Mutex lifecycle_mutex_;
  common::CondVar stopped_cv_;
  bool started_ ADA_GUARDED_BY(lifecycle_mutex_) = false;
  bool stop_signalled_ ADA_GUARDED_BY(lifecycle_mutex_) = false;
  std::atomic<bool> stopping_{false};

  common::Mutex conn_mutex_;
  std::vector<std::unique_ptr<ClientConn>> conns_
      ADA_GUARDED_BY(conn_mutex_);

  std::thread accept_thread_;
  std::thread prober_thread_;
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_ROUTER_H_
