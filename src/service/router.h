// The cluster front door: one router process that consistent-hashes
// jobs across N shard AnalysisServer processes and survives the death
// of any shard primary (DESIGN.md §11 has the full protocol).
//
// Topology (tools/ada_router wires it from flags):
//
//     client ──NDJSON──▶ router ──NDJSON──▶ shard 0 primary ──replicate──▶ shard 0 follower
//                          │
//                          └────NDJSON──▶ shard 1 primary ──replicate──▶ shard 1 follower
//
// Routing: a csv/synthetic submit is fingerprinted with the same
// BuildJobRequest / DatasetFingerprint code the shards run
// (Fingerprint), and the fingerprint picks a shard on a consistent-hash
// ring (64 virtual nodes per shard), which keeps repeat cohorts on the
// same shard's cache slice. The line goes out with the fingerprint
// spliced in (as text, not re-serialized) as the cluster-internal
// "route_fingerprint" member, so a CSV upload is parsed once per
// cluster: a shard answers a cached fingerprint at admission without
// parsing the dataset, and on a miss parses it and fails the submit
// with INTERNAL if its own fingerprint differs. Cohort traffic
// (`ingest`, cohort submits) routes on "cohort/<name>", the one shard
// where the cohort's records live; they are not replicated across
// shards (a shard death loses what it did not persist to its cohort
// directory). Job ids are rewritten global ↔ shard-local; everything
// else passes through verbatim, so `ada_client` works unchanged against
// a router or a bare shard.
//
// Upload memo: what Fingerprint derives from a csv/synthetic submit is
// remembered per exact line in an UploadMemo (length plus a keyed
// 128-bit digest, kRetainedJobs entries, no upload bytes). A repeat of
// that line is dispatched on the loop at once: no parse of its dataset,
// no build, no fingerprint, and the route_fingerprint splice of the
// whole line only if its shard refuses the fingerprint offer.
//
// Connections: the router owns the same ConnectionHost as a shard, with
// a shard's default budget, idle timeout and line cap. A forwarded
// request carries its line's Reply until the shard answers (the
// client's later lines wait meanwhile), and every shard call (forward,
// probe, failover check, promote, re-drive, stats fan-out, shutdown
// cascade) runs on the loop through one UpstreamPool, which keeps
// answered shard connections for reuse. A reply that every callback
// drops unsent still answers: UNAVAILABLE, from the host. No
// client costs a thread, and only the loop thread touches routing
// state. Preparing a line that may carry a dataset (parse, build,
// fingerprint) is the one task that runs on ThreadPool::Shared(), and
// only on an upload memo miss.
//
// Failover: `probe_failures_before_failover` failed probes, or a
// transport failure while forwarding, start a failover. It is verified
// (one ping on a fresh connection must fail too, so one torn connection
// cannot double-run jobs), once per shard at a time, and
// generation-stamped for idempotence: the follower is sent `promote`,
// every job routed to the shard is re-driven against it and the shard's
// active port flips; requests for the shard wait, holding their
// replies, until it ends. An in-flight job re-submits its forwarded
// line and re-runs unless its result was replicated; a finished
// csv/synthetic job re-submits only its fingerprint (the router drops
// the upload once it sees the job terminal) and completes as a cache
// hit on the follower, or answers UNAVAILABLE "result of job N was not
// replicated ...; resubmit" when the follower does not hold it.
// Execution is at-least-once, client-visible completion per job id
// exactly-once, and reports stay byte-identical because sessions are
// deterministic.
// A shard with no follower left is dead: its jobs fail UNAVAILABLE and
// new work rides the ring to the next live shard.
//
// Retention: the routing table keeps at most kRetainedJobs finished
// routes plus the ones in flight; finished routes are retired oldest
// first, and a retired id answers NOT_FOUND "job N expired". A route
// still in flight here whose job the shard has already retired answers
// the same, with the client's id, and is queued for retirement too.
//
// Local verbs: ping, health (router + per-shard liveness), stats
// (cross-shard aggregation with a "totals" roll-up), shutdown (cascades
// to every live endpoint). promote/replicate, and a "route_fingerprint"
// field on any verb, are cluster-internal and rejected at the front
// door: a shard trusts the field, so only the router may set it.
//
// Failpoints: "service.shard.promote" (shard side) makes promotion
// fail, exercising the shard-death path. "router.prepare" fails the
// preparation task with its injected status; "router.upload_memo"
// forces upload memo misses.
#ifndef ADAHEALTH_SERVICE_ROUTER_H_
#define ADAHEALTH_SERVICE_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "service/client.h"
#include "service/connection.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/upload_memo.h"

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
  int64_t memo_hits = 0;   // Submits dispatched from the upload memo.
};

/// The sharding router. Start, Stop, Wait, port, stats and ShardFor
/// are thread-safe.
class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();  // Stop()s.

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the listener, builds the hash ring, starts the loop thread.
  /// INVALID_ARGUMENT without shards; UNAVAILABLE when the port cannot
  /// be bound; FAILED_PRECONDITION when already started.
  [[nodiscard]] common::Status Start();

  /// Blocks until a `shutdown` verb (or Stop()) stops the router.
  void Wait();

  /// Drains every connection and joins the loop thread. Idempotent;
  /// not callable from the loop thread.
  void Stop();

  [[nodiscard]] uint16_t port() const { return host_.port(); }
  [[nodiscard]] RouterStats stats() const;

  /// Shard a ring key routes to right now (dead shards skipped;
  /// shards_.size() when every shard is dead).
  [[nodiscard]] size_t ShardFor(const std::string& fingerprint) const;

  /// The route of a csv/synthetic submit `body`, derived from scratch:
  /// validated, built and fingerprinted with the exact code the shard
  /// runs on the forwarded line, so router and shard agree on the key
  /// byte for byte (the invariant the routing scheme rests on). The
  /// upload memo remembers exactly this.
  [[nodiscard]] static common::StatusOr<UploadRoute> Fingerprint(
      const common::Json& body);

 private:
  /// Loop thread only, except `alive`, which ShardFor reads.
  struct ShardState {
    ShardEndpoints endpoints;
    uint16_t active_port = 0;
    bool using_follower = false;
    std::atomic<bool> alive{true};
    uint64_t generation = 0;  // Bumped by every failover or death.
    int consecutive_probe_failures = 0;
    bool probing = false;
    bool failing_over = false;
    /// What waits for the running failover to end.
    std::vector<std::function<void()>> after_failover;
  };

  /// Routing-table entry for one client-visible (global) job id.
  struct JobRoute {
    size_t shard = 0;
    JobId local_id = 0;
    /// What a failover re-drive sends: the forwarded submit line while
    /// in flight; once terminal, terminal_line, which holds no dataset
    /// (a csv/synthetic submit's body without it, plus its
    /// route_fingerprint; a cohort submit's client line).
    std::string redrive_line;
    std::string terminal_line;
    bool uploaded = false;  // A csv/synthetic submit.
    bool terminal = false;
    /// Non-OK once a failover could not re-drive the job; job verbs
    /// answer it without forwarding.
    common::Status redrive_failure;
  };

  /// A request line and its parse. A csv/synthetic submit also has its
  /// memo key and, once prepared, its route.
  struct Prepared {
    std::string line;
    common::StatusOr<Request> request =
        common::InternalError("request not parsed");
    UploadMemo::Key memo_key;
    UploadRoute upload;  // Empty fingerprint until prepared.
  };

  /// A client request on its way to a shard: submit and ingest route on
  /// `key`, the job verbs (status, result, cancel) on their route.
  struct Forward {
    explicit Forward(Reply owed) : reply(std::move(owed)) {}

    Reply reply;
    bool ingest = false;
    bool uploaded = false;
    std::string key;
    /// The client's line; an upload's gets its route_fingerprint spliced
    /// in by WholeLine, the first time it goes out whole.
    std::string line;
    bool spliced = false;
    std::string terminal_line;
    common::Json body;  // Job verbs: the client's body.
    JobId global_id = 0;
    int attempts_left = 0;
    // The attempt in flight.
    size_t shard = 0;
    JobId local_id = 0;
    uint64_t generation = 0;

    std::string& WholeLine();
  };

  struct Counters {
    std::atomic<int64_t> submitted{0};
    std::atomic<int64_t> completed{0};
    std::atomic<int64_t> forwarded{0};
    std::atomic<int64_t> failovers{0};
    std::atomic<int64_t> redriven{0};
    std::atomic<int64_t> dead_shards{0};
    std::atomic<int64_t> retired{0};
    std::atomic<int64_t> memo_hits{0};
  };

  // Loop thread only, except Prepare, which runs on the pool.
  void OnLine(std::string line, Reply reply);
  /// Parses the line unless it is parsed already, then fingerprints a
  /// csv/synthetic submit; any other request is left as it is.
  static void Prepare(Prepared& prepared, bool parsed);
  void Dispatch(Reply reply, Prepared prepared);
  void StartForward(Reply reply, Prepared prepared);
  /// One attempt; a transport failure runs failover before the next.
  void Attempt(const std::shared_ptr<Forward>& forward);
  [[nodiscard]] std::string ShardReplied(Forward& forward,
                                         const std::string& response);
  [[nodiscard]] std::string ForwardFailed(const Forward& forward,
                                          const common::Status& status) const;
  /// One call per non-zero port; `finish` runs once all have answered.
  void FanOut(const std::vector<uint16_t>& ports, std::string_view line,
              std::function<void(size_t, common::StatusOr<std::string>)> each,
              std::function<void()> finish);
  void HandleStats(Reply reply);
  [[nodiscard]] std::string StatsResponse(
      std::vector<common::Json::Object> shards) const;
  [[nodiscard]] std::string HandleHealth() const;
  void HandleShutdown(Reply reply);
  /// One exchange with a shard port, counted in RouterStats::forwarded;
  /// `fresh` as in UpstreamPool::Call.
  void Call(uint16_t port, std::string_view line, double timeout_millis,
            UpstreamPool::Done done, bool fresh = false);

  /// Pings every live shard that is not already being probed.
  void ScheduleProbeRound();
  /// `then` runs when the failover is over, or at once when
  /// `generation` was already handled.
  void HandleShardFailure(size_t shard, uint64_t generation,
                          std::function<void()> then);
  void Promote(size_t shard, int attempt);
  /// Re-drives `ids[next..]` against the follower one at a time, then
  /// flips the shard to it.
  void Redrive(size_t shard, std::vector<JobId> ids, size_t next);
  void MarkDead(size_t shard);
  void EndFailover(size_t shard);

  /// Rewrites a job verb's reply to `global_id` and marks a terminal
  /// one; a shard's "job `local_id` expired" goes through ExpireRoute.
  [[nodiscard]] std::string RewriteShardResponse(
      const std::string& response_line, JobId global_id, JobId local_id);
  /// The shard retired the job first: the route fails NOT_FOUND "job
  /// `global_id` expired" and is queued for retirement.
  [[nodiscard]] std::string ExpireRoute(JobId global_id);
  /// First terminal sighting: counts it, swaps in the dataset-free
  /// re-drive line and queues the route for retirement.
  void MarkTerminal(JobId id, JobRoute& route);
  void FailRoute(JobId id, JobRoute& route, common::Status failure);

  const RouterOptions options_;
  std::chrono::steady_clock::time_point start_time_{};
  /// (vnode hash, shard), sorted; built by Start(), then immutable, as
  /// is the shards_ vector itself.
  std::vector<std::pair<uint64_t, size_t>> ring_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  Counters counters_;

  // Loop thread only. Declared after host_: destroyed before its loop,
  // which the upstream connections are registered with.
  ConnectionHost host_;
  UpstreamPool upstream_;
  std::map<JobId, JobRoute> routes_;
  UploadMemo memo_;
  /// Terminal or failed routes, oldest first; admission retires them
  /// past kRetainedJobs.
  std::deque<JobId> finished_;
  JobId next_job_id_ = 1;
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_ROUTER_H_
