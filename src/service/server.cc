#include "service/server.h"

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
      host_("service", options),
      scheduler_(std::move(options.scheduler)),
      max_result_wait_millis_(
          std::max(1.0, options.max_result_wait_millis)) {
  role_.store(options.role);
}

std::unique_ptr<LogShipper> AnalysisServer::MakeShipper(
    ServerOptions& options) {
  if (options.replicate_to_port == 0) return nullptr;
  // The snapshot lambda runs only on the (started) ship thread and the
  // destructor stops that thread before scheduler_ dies, so capturing
  // `this` ahead of scheduler_'s construction is safe.
  auto shipper = std::make_unique<LogShipper>(
      options.replicate_to_port,
      [this] { return scheduler_.cache().Entries(); });
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
  // A cohort directory this process cannot replay (an old layout, a
  // corrupt log) must not serve as a silently empty store.
  ADA_RETURN_IF_ERROR(cohort_store_->status());
  start_time_ = std::chrono::steady_clock::now();
  ADA_RETURN_IF_ERROR(host_.Start([this](std::string line, Reply reply) {
    OnRequestLine(std::move(line), std::move(reply));
  }));
  if (shipper_) shipper_->Start();
  ADA_LOG(kInfo) << "service: listening on 127.0.0.1:" << port() << " as "
                 << ServerRoleName(role_.load());
  return common::OkStatus();
}

void AnalysisServer::Stop() {
  // A short failsafe: Stop() is the programmatic path (destructor,
  // tests) and should not linger the full drain window.
  host_.Stop(/*failsafe_millis=*/250.0);
}

void AnalysisServer::Wait() { host_.Wait(); }

void AnalysisServer::OnRequestLine(std::string line, Reply reply) {
  // Fault injection for the shard-failover tests: an armed
  // "service.shard.kill" failpoint makes the process die the way a
  // crashed shard does — no drain, no flushed responses — so the
  // router's detection + promotion path is exercised against a
  // realistic death, not a graceful shutdown.
  if (common::Status killed = ADA_FAILPOINT("service.shard.kill");
      !killed.ok()) {
    ADA_LOG(kError) << "service: shard kill failpoint fired: "
                    << killed.ToString();
    std::_Exit(137);
  }
  auto request = ParseRequest(line);
  if (!request.ok()) {
    host_.counters().errors.fetch_add(1);
    reply.Send(ErrorResponse(request.status()));
    return;
  }
  if (request.value().verb == "result") {
    // The one verb that may wait: on a completion subscription, never
    // on the loop thread.
    HandleResultVerb(request.value().body, std::move(reply));
    return;
  }
  reply.Send(Dispatch(request.value()));
  if (request.value().verb == "shutdown") {
    // Graceful drain; the response just enqueued is flushed before the
    // connection goes away (close-after-flush).
    host_.BeginDrain(kDrainTimeoutMillis);
  }
}

double AnalysisServer::EffectiveResultWait(const Json& body) const {
  const Json* wait = body.Find("wait_millis");
  const double requested =
      wait != nullptr && wait->is_number() ? wait->AsDouble() : 0.0;
  return requested <= 0.0 || requested > max_result_wait_millis_
             ? max_result_wait_millis_
             : requested;
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

void AnalysisServer::HandleResultVerb(const Json& body, Reply reply) {
  auto job = ReadJobId(body);
  if (!job.ok()) {
    reply.Send(ErrorResponse(job.status()));
    return;
  }
  auto snapshot = scheduler_.Status(job.value());
  if (!snapshot.ok()) {
    reply.Send(ErrorResponse(snapshot.status()));
    return;
  }
  if (IsTerminal(snapshot.value().state)) {
    reply.Send(OkResponse(SnapshotFields(snapshot.value(),
                                         /*include_artifacts=*/true)));
    return;
  }
  if (host_.draining()) {
    reply.Send(ErrorResponse(
        common::UnavailableError("server is shutting down")));
    return;
  }
  // Unanswered on return: pipelined requests behind this one wait (in
  // order) and the loop thread moves on to other clients.
  Json::Object extra;
  extra["job_id"] = Json(static_cast<int64_t>(job.value()));
  reply.AbandonWith(ErrorResponse(
      common::UnavailableError("server stopped waiting before the job "
                               "finished"),
      std::move(extra)));
  auto wait = std::make_shared<ResultWait>();
  auto subscription = scheduler_.Subscribe(
      job.value(), [this, reply, wait](const JobSnapshot& terminal) {
        // Runs on a scheduler worker (or inline); hop to the loop.
        host_.loop().Post([this, reply, wait, terminal] {
          host_.loop().CancelTimer(wait->timer);
          reply.Send(OkResponse(SnapshotFields(terminal,
                                               /*include_artifacts=*/true)));
        });
      });
  if (!subscription.ok()) {
    // The job finished and was retired between Status and Subscribe
    // (see kRetainedJobs): answer "expired".
    reply.Send(ErrorResponse(subscription.status()));
    return;
  }
  // The inline sentinel 0 (the job finished between Status and
  // Subscribe) never unsubscribes, so the posted completion answers.
  wait->subscription = subscription.value();
  wait->timer = host_.loop().ScheduleAfter(
      EffectiveResultWait(body), [this, reply, wait, job = job.value()] {
        // False: the completion fired and its posted answer comes first.
        if (scheduler_.Unsubscribe(wait->subscription)) {
          reply.Send(ResultTimeoutResponse(job));
        }
      });
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
    // (HandleResultVerb waits on a completion subscription).
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
    const ConnectionCounters& connections = host_.counters();
    server["open_connections"] = Json(connections.open.load());
    server["total_connections"] = Json(connections.total.load());
    server["shed_connections"] = Json(connections.shed.load());
    server["idle_disconnects"] = Json(connections.idle_disconnects.load());
    server["errors"] = Json(connections.errors.load());
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
    fields["open_connections"] = Json(host_.counters().open.load());
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
