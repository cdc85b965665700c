#include "service/server.h"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace adahealth {
namespace service {

using common::Json;
using common::Status;
using common::StatusOr;

namespace {

/// Failsafe on a `shutdown` verb's graceful drain: connections that have
/// not flushed and gone away by then are force-dropped.
constexpr double kDrainTimeoutMillis = 5000.0;

// Reads the required "job_id" field of a status/result/cancel request.
StatusOr<JobId> ReadJobId(const Json& body) {
  const Json* field = body.Find("job_id");
  if (field == nullptr || !field->is_int()) {
    return common::InvalidArgumentError(
        "request must carry an integer 'job_id'");
  }
  return field->AsInt();
}

double ReadWaitMillis(const Json& body) {
  if (const Json* wait = body.Find("wait_millis");
      wait != nullptr && wait->is_number()) {
    return wait->AsDouble();
  }
  return 0.0;
}

// Reads the required "cohort" field of an ingest/cohort-submit request.
StatusOr<std::string> ReadCohortName(const Json& body) {
  const Json* field = body.Find("cohort");
  if (field == nullptr || !field->is_string() || field->AsString().empty()) {
    return common::InvalidArgumentError(
        "request must carry a non-empty string 'cohort'");
  }
  return field->AsString();
}

}  // namespace

const char* ServerRoleName(ServerRole role) {
  return role == ServerRole::kPrimary ? "primary" : "follower";
}

AnalysisServer::AnalysisServer(ServerOptions options)
    : shipper_(MakeShipper(options)),
      cohort_store_(MakeCohortStore(options)),
      scheduler_(std::move(options.scheduler)),
      requested_port_(options.port),
      max_connections_(std::max<size_t>(1, options.max_connections)),
      idle_timeout_millis_(options.idle_timeout_millis),
      max_result_wait_millis_(
          std::max(1.0, options.max_result_wait_millis)),
      max_line_bytes_(std::max<size_t>(1, options.max_line_bytes)) {
  role_.store(options.role);
}

std::unique_ptr<LogShipper> AnalysisServer::MakeShipper(
    ServerOptions& options) {
  if (options.replicate_to_port == 0) return nullptr;
  ReplicationOptions replication;
  replication.follower_port = options.replicate_to_port;
  // The snapshot lambda runs only on the (started) ship thread and the
  // destructor stops that thread before scheduler_ dies, so capturing
  // `this` ahead of scheduler_'s construction is safe.
  auto shipper = std::make_unique<LogShipper>(
      replication, [this] { return scheduler_.cache().Entries(); });
  LogShipper* raw = shipper.get();
  options.scheduler.on_result_committed =
      [raw](const CachedAnalysis& entry) { raw->Enqueue(entry); };
  return shipper;
}

std::unique_ptr<CohortStore> AnalysisServer::MakeCohortStore(
    ServerOptions& options) {
  CohortStoreOptions store_options;
  store_options.directory = options.cohort_directory;
  auto store = std::make_unique<CohortStore>(std::move(store_options));
  CohortStore* raw = store.get();
  // Runs on scheduler workers; the store outlives the scheduler
  // (declaration order), so the raw capture is safe.
  options.scheduler.on_session_success =
      [raw](const JobRequest& request, const core::SessionResult& result) {
        // request.log is the exact snapshot the session analyzed, so
        // its record count — not the live cohort's, which may have
        // grown since — is the drift gate's baseline.
        raw->OnAnalysisCommitted(
            request.cohort, request.cohort_generation,
            static_cast<int64_t>(request.log.num_records()), result);
      };
  return store;
}

AnalysisServer::~AnalysisServer() {
  Stop();
  // Stop the ship thread before member destruction reaches scheduler_:
  // its snapshot callback reads the scheduler's cache. Workers the
  // scheduler destructor is still waiting out may Enqueue into the
  // stopped shipper (safe — entries just queue); the router's re-drive
  // covers anything unshipped at death.
  if (shipper_) shipper_->Stop();
}

Status AnalysisServer::Start() {
  if (running_.load()) {
    return common::FailedPreconditionError("server already started");
  }
  ADA_ASSIGN_OR_RETURN(listener_, ServerSocket::Listen(requested_port_));
  ADA_RETURN_IF_ERROR(SetNonBlocking(listener_.descriptor()));
  port_ = listener_.port();
  ADA_RETURN_IF_ERROR(loop_.Init());
  ADA_RETURN_IF_ERROR(loop_.Watch(listener_.fd(), EPOLLIN,
                                  [this](uint32_t) { OnAcceptable(); }));
  draining_ = false;
  if (idle_timeout_millis_ > 0) {
    // The sweep reschedules itself; sweeping at a quarter of the
    // timeout bounds eviction lag to ~1.25x the configured idle time.
    const double period = std::max(idle_timeout_millis_ / 4.0, 10.0);
    loop_.ScheduleAfter(period, [this] { SweepIdleConnections(); });
  }
  start_time_ = std::chrono::steady_clock::now();
  running_.store(true);
  {
    common::MutexLock lock(&join_mutex_);
    loop_thread_ = std::thread([this] { LoopMain(); });
  }
  if (shipper_) shipper_->Start();
  ADA_LOG(kInfo) << "service: listening on 127.0.0.1:" << port_
                 << " as " << ServerRoleName(role_.load());
  return common::OkStatus();
}

void AnalysisServer::LoopMain() {
  loop_.Run();
  running_.store(false);
}

void AnalysisServer::Stop() {
  if (running_.load()) {
    // A short failsafe: Stop() is the programmatic path (destructor,
    // tests) and should not linger the full drain window.
    loop_.Post([this] { BeginDrain(/*failsafe_millis=*/250.0); });
  }
  Wait();
}

void AnalysisServer::Wait() {
  common::MutexLock lock(&join_mutex_);
  if (loop_thread_.joinable()) loop_thread_.join();
  running_.store(false);
}

void AnalysisServer::OnAcceptable() {
  for (;;) {
    auto accepted = listener_.TryAccept();
    if (!accepted.ok()) {
      if (draining_) return;
      // A transient accept failure (injected or EMFILE-style) must not
      // kill the server; level-triggered epoll re-reports the pending
      // backlog on the next iteration.
      errors_.fetch_add(1);
      ADA_LOG(kWarning) << "service: accept failed: "
                        << accepted.status().message();
      return;
    }
    if (!accepted.value().valid()) return;  // Backlog drained.
    total_connections_.fetch_add(1);
    if (connections_.size() >= max_connections_) {
      // Shed: tell the client why (best-effort single write — the
      // socket buffer of a fresh connection is empty, so this
      // virtually always lands) and drop the connection.
      shed_connections_.fetch_add(1);
      (void)SendNonBlocking(
          accepted.value(),
          ErrorResponse(common::ResourceExhaustedError(common::StrFormat(
              "server at its %zu-connection limit", max_connections_))));
      continue;  // FileDescriptor destructor releases the socket.
    }
    const int64_t id = next_connection_id_++;
    auto conn = std::make_unique<Connection>(
        id, std::move(accepted).value(), &loop_, max_line_bytes_, &errors_);
    Connection* raw = conn.get();
    Status registered = raw->Register(
        [this, id](uint32_t events) { OnConnectionEvent(id, events); },
        [this, id](Connection& c, std::string line) {
          OnRequestLine(id, c, std::move(line));
        });
    if (!registered.ok()) {
      errors_.fetch_add(1);
      ADA_LOG(kWarning) << "service: failed to register connection: "
                        << registered.ToString();
      continue;  // conn goes out of scope and releases the socket.
    }
    ConnectionEntry entry;
    entry.conn = std::move(conn);
    connections_.emplace(id, std::move(entry));
    open_connections_.store(static_cast<int64_t>(connections_.size()));
  }
}

void AnalysisServer::OnConnectionEvent(int64_t id, uint32_t events) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  it->second.conn->HandleEvents(events);
  ReapIfClosed(id);
}

void AnalysisServer::OnRequestLine(int64_t id, Connection& conn,
                                   std::string line) {
  // Fault injection for the shard-failover tests: an armed
  // "service.shard.kill" failpoint makes the process die the way a
  // crashed shard does — no drain, no flushed responses, no cache
  // flush — so the router's detection + promotion path is exercised
  // against a realistic death, not a graceful shutdown.
  if (common::Status killed = ADA_FAILPOINT("service.shard.kill");
      !killed.ok()) {
    ADA_LOG(kError) << "service: shard kill failpoint fired: "
                    << killed.ToString();
    std::_Exit(137);
  }
  auto request = ParseRequest(line);
  if (!request.ok()) {
    errors_.fetch_add(1);
    conn.EnqueueResponse(ErrorResponse(request.status()));
    return;
  }
  if (request.value().verb == "result") {
    // The one verb that may wait: parked on a completion subscription,
    // never on the loop thread.
    HandleResultVerb(id, conn, request.value().body);
    return;
  }
  conn.EnqueueResponse(Dispatch(request.value()));
  if (request.value().verb == "shutdown") {
    // Graceful drain; the response just enqueued is flushed before the
    // connection goes away (close-after-flush).
    BeginDrain(kDrainTimeoutMillis);
  }
}

double AnalysisServer::EffectiveResultWait(const Json& body) const {
  const double requested = ReadWaitMillis(body);
  if (requested <= 0.0 || requested > max_result_wait_millis_) {
    return max_result_wait_millis_;
  }
  return requested;
}

std::string AnalysisServer::ResultTimeoutResponse(JobId job) const {
  // Satellite-3 contract: the timeout error body carries the job's
  // *current* state so a client can tell "still running, poll again"
  // from the job's own deadline expiry.
  const char* state = "unknown";
  if (auto snapshot = scheduler_.Status(job); snapshot.ok()) {
    state = JobStateName(snapshot.value().state);
  }
  Json::Object extra;
  extra["job_id"] = Json(static_cast<int64_t>(job));
  extra["state"] = Json(std::string(state));
  return ErrorResponse(
      common::DeadlineExceededError(common::StrFormat(
          "job %lld not finished within the wait budget; currently %s",
          static_cast<long long>(job), state)),
      std::move(extra));
}

void AnalysisServer::HandleResultVerb(int64_t id, Connection& conn,
                                      const Json& body) {
  auto job = ReadJobId(body);
  if (!job.ok()) {
    conn.EnqueueResponse(ErrorResponse(job.status()));
    return;
  }
  auto snapshot = scheduler_.Status(job.value());
  if (!snapshot.ok()) {
    conn.EnqueueResponse(ErrorResponse(snapshot.status()));
    return;
  }
  if (IsTerminal(snapshot.value().state)) {
    conn.EnqueueResponse(OkResponse(
        SnapshotFields(snapshot.value(), /*include_artifacts=*/true)));
    return;
  }
  if (draining_) {
    conn.EnqueueResponse(ErrorResponse(
        common::UnavailableError("server is shutting down")));
    return;
  }
  // Park the connection: pipelined requests behind this one wait (in
  // order) and the loop thread moves on to other clients.
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  ConnectionEntry& entry = it->second;
  entry.waiting = true;
  entry.wait_job = job.value();
  const uint64_t epoch = ++entry.wait_epoch;
  conn.PauseRequests();
  entry.wait_timer = loop_.ScheduleAfter(
      EffectiveResultWait(body),
      [this, id, epoch] { OnResultTimeout(id, epoch); });
  entry.has_wait_timer = true;
  auto subscription = scheduler_.Subscribe(
      job.value(), [this, id, epoch](const JobSnapshot& terminal) {
        // Runs on a scheduler worker (or inline); hop to the loop.
        loop_.Post([this, id, epoch, terminal] {
          OnResultComplete(id, epoch, terminal);
        });
      });
  if (!subscription.ok()) {
    // The job finished and was retired between Status and Subscribe
    // (see kRetainedJobs): unwind the park and answer "expired".
    ClearWait(entry);
    conn.EnqueueResponse(ErrorResponse(subscription.status()));
    conn.ResumeRequests();
    return;
  }
  // May be the inline sentinel 0 (job finished between Status and
  // Subscribe) — the completion is already posted in that case.
  entry.wait_subscription = subscription.value();
}

void AnalysisServer::OnResultTimeout(int64_t id, uint64_t epoch) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  ConnectionEntry& entry = it->second;
  if (!entry.waiting || entry.wait_epoch != epoch) return;
  entry.has_wait_timer = false;  // This timer just fired.
  // Subscription 0 = fired inline at Subscribe; a false Unsubscribe =
  // the completion callback beat us. Either way the completion is in
  // flight on the loop queue and will answer — never respond twice.
  if (entry.wait_subscription == 0 ||
      !scheduler_.Unsubscribe(entry.wait_subscription)) {
    return;
  }
  const JobId job = entry.wait_job;
  entry.waiting = false;
  ++entry.wait_epoch;
  entry.conn->EnqueueResponse(ResultTimeoutResponse(job));
  entry.conn->ResumeRequests();
  ReapIfClosed(id);
}

void AnalysisServer::OnResultComplete(int64_t id, uint64_t epoch,
                                      const JobSnapshot& snapshot) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  ConnectionEntry& entry = it->second;
  if (!entry.waiting || entry.wait_epoch != epoch) return;
  ClearWait(entry);
  entry.conn->EnqueueResponse(
      OkResponse(SnapshotFields(snapshot, /*include_artifacts=*/true)));
  entry.conn->ResumeRequests();
  ReapIfClosed(id);
}

void AnalysisServer::ClearWait(ConnectionEntry& entry) {
  if (entry.has_wait_timer) {
    loop_.CancelTimer(entry.wait_timer);
    entry.has_wait_timer = false;
  }
  if (entry.waiting && entry.wait_subscription != 0) {
    // False = the completion already fired; its posted task will find
    // the bumped epoch and bail.
    (void)scheduler_.Unsubscribe(entry.wait_subscription);
  }
  entry.wait_subscription = 0;
  entry.waiting = false;
  ++entry.wait_epoch;
}

void AnalysisServer::BeginDrain(double failsafe_millis) {
  if (!draining_) {
    draining_ = true;
    loop_.Unwatch(listener_.fd());
    listener_.Shutdown();  // Pending un-accepted clients see EOF.
    for (auto& [id, entry] : connections_) {
      if (entry.waiting) {
        const JobId job = entry.wait_job;
        ClearWait(entry);
        Json::Object extra;
        extra["job_id"] = Json(static_cast<int64_t>(job));
        entry.conn->EnqueueResponse(ErrorResponse(
            common::UnavailableError(
                "server shutting down before the job finished"),
            std::move(extra)));
      }
      entry.conn->StartDrain();
    }
    // Reap on a posted task, not here: BeginDrain can run inside a
    // connection's own request handler, and erasing that connection
    // mid-call would free it under our feet.
    loop_.Post([this] {
      std::vector<int64_t> closed;
      for (const auto& [id, entry] : connections_) {
        if (entry.conn->closed()) closed.push_back(id);
      }
      for (int64_t id : closed) RemoveConnection(id);
      if (connections_.empty()) loop_.Quit();
    });
  }
  loop_.ScheduleAfter(failsafe_millis, [this] {
    ForceCloseAll();
    loop_.Quit();
  });
}

void AnalysisServer::ForceCloseAll() {
  for (auto& [id, entry] : connections_) {
    ClearWait(entry);
    entry.conn->CloseNow();
  }
  connections_.clear();
  open_connections_.store(0);
}

void AnalysisServer::RemoveConnection(int64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  ClearWait(it->second);
  it->second.conn->CloseNow();
  connections_.erase(it);
  open_connections_.store(static_cast<int64_t>(connections_.size()));
  if (draining_ && connections_.empty()) loop_.Quit();
}

void AnalysisServer::ReapIfClosed(int64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  if (it->second.conn->closed()) RemoveConnection(id);
}

void AnalysisServer::SweepIdleConnections() {
  const auto now = std::chrono::steady_clock::now();
  const auto budget = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(idle_timeout_millis_));
  std::vector<int64_t> idle;
  for (const auto& [id, entry] : connections_) {
    // Parked waits are exempt: their lifetime is bounded by the result
    // wait cap, and evicting them would drop a promised response.
    if (entry.waiting) continue;
    if (now - entry.conn->last_activity() > budget) idle.push_back(id);
  }
  for (int64_t id : idle) {
    idle_disconnects_.fetch_add(1);
    RemoveConnection(id);
  }
  if (!draining_) {
    const double period = std::max(idle_timeout_millis_ / 4.0, 10.0);
    loop_.ScheduleAfter(period, [this] { SweepIdleConnections(); });
  }
}

common::Json AnalysisServer::ReplicationFields() const {
  const ReplicationStats replication = shipper_->stats();
  Json::Object fields;
  fields["shipped"] = Json(replication.shipped);
  fields["send_failures"] = Json(replication.send_failures);
  fields["reconnects"] = Json(replication.reconnects);
  fields["dropped"] = Json(replication.dropped);
  fields["queue_depth"] = Json(static_cast<int64_t>(replication.queue_depth));
  fields["connected"] = Json(replication.connected);
  return Json(std::move(fields));
}

std::string AnalysisServer::DispatchIngest(const Json& body) {
  auto cohort = ReadCohortName(body);
  if (!cohort.ok()) return ErrorResponse(cohort.status());
  auto rows = ParseIngestRecords(body);
  if (!rows.ok()) return ErrorResponse(rows.status());
  // Optional replay guard: commit only against this exact generation
  // (see CohortStore::Ingest). Lets a client retry a timed-out batch
  // without risking a double append.
  int64_t expected_generation = -1;
  if (const Json* expected = body.Find("expected_generation");
      expected != nullptr) {
    if (!expected->is_int() || expected->AsInt() < 0) {
      return ErrorResponse(common::InvalidArgumentError(
          "'expected_generation' must be a non-negative integer"));
    }
    expected_generation = expected->AsInt();
  }
  auto result =
      cohort_store_->Ingest(cohort.value(), rows.value(), expected_generation);
  if (!result.ok()) return ErrorResponse(result.status());
  Json::Object fields;
  fields["cohort"] = Json(cohort.value());
  fields["generation"] = Json(result.value().generation);
  fields["batch_records"] = Json(result.value().batch_records);
  fields["total_records"] = Json(result.value().total_records);
  fields["patients"] = Json(result.value().patients);
  return OkResponse(std::move(fields));
}

std::string AnalysisServer::DispatchCohortSubmit(const Json& body) {
  auto cohort = ReadCohortName(body);
  if (!cohort.ok()) return ErrorResponse(cohort.status());
  if (body.Find("csv") != nullptr || body.Find("synthetic") != nullptr) {
    return ErrorResponse(common::InvalidArgumentError(
        "submit takes exactly one of 'cohort', 'csv' or 'synthetic'"));
  }
  auto job_request = cohort_store_->BuildCohortJob(cohort.value());
  if (!job_request.ok()) return ErrorResponse(job_request.status());
  if (Status applied = ApplyJobOptionsFromBody(body, job_request.value());
      !applied.ok()) {
    return ErrorResponse(applied);
  }
  auto id = scheduler_.Submit(std::move(job_request).value());
  if (!id.ok()) return ErrorResponse(id.status());
  return SubmitResponse(id.value());
}

std::string AnalysisServer::DispatchSubmit(const Json& body) {
  // The router forwards the fingerprint it routed on. A cached one is
  // answered without parsing the dataset; otherwise the dataset is
  // built and must fingerprint the same.
  std::string hint;
  if (const Json* field = body.Find("route_fingerprint"); field != nullptr) {
    if (!field->is_string() || field->AsString().empty()) {
      return ErrorResponse(common::InvalidArgumentError(
          "'route_fingerprint' must be a non-empty string"));
    }
    hint = field->AsString();
    JobRequest knobs;
    if (Status applied = ApplyJobOptionsFromBody(body, knobs); !applied.ok()) {
      return ErrorResponse(applied);
    }
    auto admitted = scheduler_.SubmitIfCached(hint, std::move(knobs));
    if (!admitted.ok()) return ErrorResponse(admitted.status());
    if (admitted->has_value()) return SubmitResponse(**admitted);
  }
  auto job_request = BuildJobRequest(body);
  if (!job_request.ok()) return ErrorResponse(job_request.status());
  auto id = scheduler_.Submit(std::move(job_request).value(), hint);
  if (!id.ok()) return ErrorResponse(id.status());
  return SubmitResponse(id.value());
}

std::string AnalysisServer::SubmitResponse(JobId id) const {
  auto snapshot = scheduler_.Status(id);
  if (!snapshot.ok()) return ErrorResponse(snapshot.status());
  return OkResponse(SnapshotFields(snapshot.value(),
                                   /*include_artifacts=*/false));
}

std::string AnalysisServer::Dispatch(const Request& request) {
  if (request.verb == "submit") {
    if (role_.load() == ServerRole::kFollower) {
      // A follower must not run jobs the primary would also run: the
      // router owns routing, and this shard serves traffic only after
      // a `promote`. UNAVAILABLE is retryable, so a client racing a
      // failover backs off and retries against the promoted shard.
      return ErrorResponse(common::UnavailableError(
          "shard is a follower; not accepting jobs until promoted"));
    }
    if (request.body.Find("cohort") != nullptr) {
      return DispatchCohortSubmit(request.body);
    }
    return DispatchSubmit(request.body);
  }
  if (request.verb == "ingest") {
    if (role_.load() == ServerRole::kFollower) {
      // Same contract as submit: followers serve no writes until
      // promoted, and UNAVAILABLE tells the client to retry elsewhere.
      return ErrorResponse(common::UnavailableError(
          "shard is a follower; not accepting ingests until promoted"));
    }
    return DispatchIngest(request.body);
  }
  if (request.verb == "status") {
    auto id = ReadJobId(request.body);
    if (!id.ok()) return ErrorResponse(id.status());
    auto snapshot = scheduler_.Status(id.value());
    if (!snapshot.ok()) return ErrorResponse(snapshot.status());
    return OkResponse(SnapshotFields(snapshot.value(),
                                     /*include_artifacts=*/false));
  }
  if (request.verb == "result") {
    // `result` may wait, so only a connection serves it
    // (HandleResultVerb parks it on a completion subscription).
    return ErrorResponse(common::FailedPreconditionError(
        "verb 'result' is served on a connection"));
  }
  if (request.verb == "cancel") {
    auto id = ReadJobId(request.body);
    if (!id.ok()) return ErrorResponse(id.status());
    if (Status cancelled = scheduler_.Cancel(id.value()); !cancelled.ok()) {
      return ErrorResponse(cancelled);
    }
    Json::Object fields;
    fields["job_id"] = id.value();
    fields["state"] = std::string(JobStateName(JobState::kCancelled));
    return OkResponse(std::move(fields));
  }
  if (request.verb == "stats") {
    Json::Object fields = scheduler_.StatsJson().AsObject();
    Json::Object server;
    server["open_connections"] = Json(open_connections_.load());
    server["total_connections"] = Json(total_connections_.load());
    server["shed_connections"] = Json(shed_connections_.load());
    server["idle_disconnects"] = Json(idle_disconnects_.load());
    server["errors"] = Json(errors_.load());
    server["role"] = Json(std::string(ServerRoleName(role_.load())));
    fields["server"] = Json(std::move(server));
    fields["ingest"] = cohort_store_->StatsJson();
    if (shipper_ != nullptr) {
      fields["replication"] = ReplicationFields();
    }
    return OkResponse(std::move(fields));
  }
  if (request.verb == "health") {
    // Liveness + load in one cheap round-trip: the router's prober and
    // `ada_client health` both read this. Everything here is a lock-
    // free or single-lock snapshot — a wedged worker session must not
    // wedge the health probe.
    const SchedulerStats scheduler_stats = scheduler_.stats();
    const double uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_time_)
            .count();
    Json::Object fields;
    fields["service"] = "ada-health";
    fields["role"] = Json(std::string(ServerRoleName(role_.load())));
    fields["uptime_seconds"] = Json(uptime_seconds);
    fields["queue_depth"] =
        Json(static_cast<int64_t>(scheduler_stats.queue_depth));
    fields["active_workers"] =
        Json(static_cast<int64_t>(scheduler_stats.active_workers));
    fields["max_workers"] =
        Json(static_cast<int64_t>(scheduler_.options().max_workers));
    fields["cache_entries"] =
        Json(static_cast<int64_t>(scheduler_.cache().entries()));
    fields["jobs_submitted"] = Json(scheduler_stats.submitted);
    fields["jobs_completed"] = Json(scheduler_stats.completed);
    fields["jobs_failed"] = Json(scheduler_stats.failed);
    fields["jobs_retired"] = Json(scheduler_stats.retired);
    fields["open_connections"] = Json(open_connections_.load());
    fields["ingest"] = cohort_store_->StatsJson();
    if (shipper_ != nullptr) {
      fields["replication"] = ReplicationFields();
    }
    return OkResponse(std::move(fields));
  }
  if (request.verb == "promote") {
    // Router-driven failover: flip this follower to primary so it
    // starts accepting the re-driven jobs. Idempotent (promoting a
    // primary is a no-op) because the router may retry the promotion
    // after a dropped response.
    if (common::Status injected = ADA_FAILPOINT("service.shard.promote");
        !injected.ok()) {
      return ErrorResponse(injected);
    }
    const ServerRole previous = role_.exchange(ServerRole::kPrimary);
    ADA_LOG(kInfo) << "service: promoted to primary (was "
                   << ServerRoleName(previous) << ")";
    Json::Object fields;
    fields["role"] = Json(std::string(ServerRoleName(ServerRole::kPrimary)));
    fields["was_follower"] = Json(previous == ServerRole::kFollower);
    fields["cache_entries"] =
        Json(static_cast<int64_t>(scheduler_.cache().entries()));
    return OkResponse(std::move(fields));
  }
  if (request.verb == "replicate") {
    // Applied by a follower for every entry the primary's LogShipper
    // streams over. Idempotent: re-inserting a fingerprint refreshes
    // the entry, so at-least-once delivery needs no dedup state.
    const Json* entry_field = request.body.Find("entry");
    if (entry_field == nullptr) {
      return ErrorResponse(common::InvalidArgumentError(
          "replicate request must carry an 'entry' object"));
    }
    auto entry = CachedAnalysis::FromJson(*entry_field);
    if (!entry.ok()) return ErrorResponse(entry.status());
    // fire_hook=false: a replicated entry must not re-enter a shipper,
    // or a promoted ex-follower would loop records back at its peer.
    scheduler_.CommitCacheEntry(std::move(entry).value(),
                                /*fire_hook=*/false);
    Json::Object fields;
    fields["applied"] = true;
    fields["cache_entries"] =
        Json(static_cast<int64_t>(scheduler_.cache().entries()));
    return OkResponse(std::move(fields));
  }
  if (request.verb == "ping") {
    Json::Object fields;
    fields["service"] = "ada-health";
    return OkResponse(std::move(fields));
  }
  if (request.verb == "shutdown") {
    Json::Object fields;
    fields["stopping"] = true;
    return OkResponse(std::move(fields));
  }
  return ErrorResponse(common::InvalidArgumentError(
      common::StrFormat("unknown verb '%s'", request.verb.c_str())));
}

}  // namespace service
}  // namespace adahealth
