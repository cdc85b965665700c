// The NDJSON protocol front-end: one TCP server that exposes a
// Scheduler over the loopback interface.
//
// Connection model: a ConnectionHost (service/connection.h), as in the
// router: one epoll loop thread multiplexes every connection, so no
// client can starve another by being slow, holding its socket open, or
// waiting inside a long `result` wait. Pipelined requests are answered
// strictly in order, each through its line's Reply. All heavy work runs
// on the scheduler's workers; the loop thread only parses, dispatches,
// and shuttles buffers. A `result` wait holds its Reply in a
// Scheduler::Subscribe completion callback and a timeout timer, and
// whichever fires first answers; the lines behind it wait until then.
//
// Resource policy: at most `max_connections` concurrent clients
// (excess accepts are answered RESOURCE_EXHAUSTED and dropped),
// connections idle beyond `idle_timeout_millis` and owed no reply are
// evicted, request
// lines are capped at `max_line_bytes`, and `result` waits are capped
// server-side at `max_result_wait_millis`. Shutdown (the `shutdown`
// verb or Stop()) drains gracefully: the listener stops accepting,
// pending responses are flushed, pending `result` waits are answered
// UNAVAILABLE, and a failsafe timer bounds the drain.
#ifndef ADAHEALTH_SERVICE_SERVER_H_
#define ADAHEALTH_SERVICE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "service/cohort_store.h"
#include "service/connection.h"
#include "service/event_loop.h"
#include "service/protocol.h"
#include "service/replication.h"
#include "service/scheduler.h"

namespace adahealth {
namespace service {

/// A shard process is either the primary (accepts submits, replicates
/// committed results) or a warm follower (applies `replicate` records,
/// rejects submits until the router `promote`s it).
enum class ServerRole { kPrimary, kFollower };

[[nodiscard]] const char* ServerRoleName(ServerRole role);

/// `port`, `max_connections`, `idle_timeout_millis` and
/// `max_line_bytes` are the listener's ConnectionLimits.
struct ServerOptions : ConnectionLimits {
  /// Server-side ceiling on one `result` wait — a client asking for an
  /// unbounded wait (wait_millis <= 0 or > this) gets this instead,
  /// and the timeout error carries the job's current state so the
  /// client can poll again (clamped to >= 1 ms).
  double max_result_wait_millis = 60000.0;
  /// Starting role. A follower rejects `submit` with UNAVAILABLE until
  /// it receives the `promote` verb (from the router, on primary
  /// death) — clients must not land jobs on a replica that the primary
  /// would also run.
  ServerRole role = ServerRole::kPrimary;
  /// When non-zero, this server is a shard primary replicating every
  /// committed result to the follower NDJSON server on that loopback
  /// port (see service/replication.h).
  uint16_t replicate_to_port = 0;
  /// Directory for the streaming cohort store's per-cohort files
  /// (service/cohort_store.h). Empty = in-memory cohorts only: the
  /// `ingest` verb works but nothing survives the process.
  std::string cohort_directory;
  SchedulerOptions scheduler;
};

/// The analysis service: scheduler + NDJSON protocol endpoint.
class AnalysisServer {
 public:
  explicit AnalysisServer(ServerOptions options);
  /// Stops the server (as Stop()) before tearing down the scheduler.
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  /// Binds the listening socket and starts the event-loop thread.
  /// UNAVAILABLE when the port cannot be bound; FAILED_PRECONDITION
  /// when already started.
  [[nodiscard]] common::Status Start();

  /// Triggers a graceful drain and joins the loop thread. Idempotent;
  /// callable from any thread except the loop thread itself.
  void Stop();

  /// Blocks until the event loop exits (a `shutdown` verb or Stop()).
  void Wait();

  /// The bound port (valid after Start()).
  [[nodiscard]] uint16_t port() const { return host_.port(); }
  [[nodiscard]] bool running() const { return host_.running(); }

  /// Current role; flips kFollower → kPrimary on the `promote` verb.
  [[nodiscard]] ServerRole role() const { return role_.load(); }

  Scheduler& scheduler() { return scheduler_; }

  /// The replication shipper, or nullptr when replicate_to_port is 0.
  [[nodiscard]] LogShipper* shipper() { return shipper_.get(); }

  /// The streaming cohort store backing the `ingest` verb and cohort
  /// submissions (always constructed; in-memory when
  /// ServerOptions::cohort_directory is empty).
  // ada-lint: allow(unreached-symbol) the store behind a server, read by
  // router_test, service_server_test and fault_injection_test.
  [[nodiscard]] CohortStore& cohort_store() { return *cohort_store_; }

  /// Handles one already-parsed request and returns the serialized
  /// response line. Exposed so tests can drive the dispatch table
  /// without sockets; on this path `result` answers
  /// FAILED_PRECONDITION (it is served on a connection only) and
  /// `shutdown` only builds its response — the wire path is what
  /// triggers the drain.
  [[nodiscard]] std::string Dispatch(const Request& request);

 private:
  /// A `result` wait's subscription and timer. Loop thread only.
  struct ResultWait {
    Scheduler::SubscriptionId subscription = 0;
    EventLoop::TimerId timer{};
  };

  /// Builds the replication shipper (nullptr when replicate_to_port is
  /// 0) and wires the scheduler's on_result_committed hook to it; runs
  /// first in the constructor's init list, before scheduler_ exists.
  [[nodiscard]] std::unique_ptr<LogShipper> MakeShipper(
      ServerOptions& options);

  /// Builds the cohort store and wires the scheduler's
  /// on_session_success hook to its OnAnalysisCommitted; runs in the
  /// constructor's init list before scheduler_ exists (same pattern as
  /// MakeShipper).
  [[nodiscard]] std::unique_ptr<CohortStore> MakeCohortStore(
      ServerOptions& options);

  /// Dispatch helpers for the cohort verbs (see Dispatch).
  [[nodiscard]] std::string DispatchIngest(const common::Json& body);
  [[nodiscard]] std::string DispatchCohortSubmit(const common::Json& body);
  /// A csv/synthetic submit. With the router's "route_fingerprint", a
  /// cached fingerprint is admitted done without building the dataset;
  /// on a miss the built dataset must fingerprint the same (INTERNAL
  /// otherwise, nothing admitted).
  [[nodiscard]] std::string DispatchSubmit(const common::Json& body);
  /// The submit verbs' reply: the admitted job's snapshot.
  [[nodiscard]] std::string SubmitResponse(JobId id) const;

  void OnRequestLine(std::string line, Reply reply);
  void HandleResultVerb(const common::Json& body, Reply reply);
  double EffectiveResultWait(const common::Json& body) const;
  [[nodiscard]] std::string ResultTimeoutResponse(JobId job) const;
  /// The replication-counters object shared by `stats` and `health`
  /// responses; requires shipper_ != nullptr.
  [[nodiscard]] common::Json ReplicationFields() const;

  // Destruction order (reverse of declaration) is load-bearing:
  // scheduler_ first of all — its destructor waits out the workers, so
  // no completion callback can Post into the loop after the host (and
  // its loop) is gone; shipper_ and cohort_store_ last of all — workers
  // the scheduler is waiting out may still Enqueue into the shipper via
  // on_result_committed and call into the cohort store via
  // on_session_success. (~AnalysisServer additionally Stop()s the
  // shipper before the scheduler dies: the ship thread's snapshot
  // callback reads the scheduler's cache.)
  std::unique_ptr<LogShipper> shipper_;
  std::unique_ptr<CohortStore> cohort_store_;
  ConnectionHost host_;
  Scheduler scheduler_;

  std::atomic<ServerRole> role_{ServerRole::kPrimary};
  /// Set by Start(); the `health` verb reports uptime against it.
  std::chrono::steady_clock::time_point start_time_{};
  const double max_result_wait_millis_;
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_SERVER_H_
