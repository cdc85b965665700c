#include "service/router.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "service/fingerprint.h"
#include "service/protocol.h"

namespace adahealth {
namespace service {

using common::Json;
using common::MutexLock;
using common::Status;
using common::StatusOr;

namespace {

/// Forwarding attempts per submit or job-verb request; each transport
/// failure between attempts runs failover for the routed shard.
constexpr int kMaxForwardAttempts = 3;
/// Receive deadline on forwards and re-drives. It must exceed the
/// shards' max_result_wait_millis (60 s by default) or long `result`
/// waits get cut short.
constexpr double kForwardTimeoutMillis = 120000.0;
/// Receive deadline on probes, failover verification, promote, the
/// stats fan-out and the shutdown cascade.
constexpr double kProbeTimeoutMillis = 1000.0;
/// Connect retries against the follower during promotion.
constexpr int kPromoteConnectRetries = 10;
/// Virtual nodes per shard on the consistent-hash ring.
constexpr size_t kVnodesPerShard = 64;

constexpr std::string_view kPingLine = "{\"verb\":\"ping\"}";
constexpr std::string_view kPromoteLine = "{\"verb\":\"promote\"}";
constexpr std::string_view kShutdownLine = "{\"verb\":\"shutdown\"}";
constexpr std::string_view kStatsLine = "{\"verb\":\"stats\"}";

bool IsTerminalStateName(const std::string& name) {
  return name == JobStateName(JobState::kDone) ||
         name == JobStateName(JobState::kFailed) ||
         name == JobStateName(JobState::kExpired) ||
         name == JobStateName(JobState::kCancelled);
}

/// Recursive integer roll-up for the `stats` verb's "totals" object:
/// int fields add up, object fields recurse, everything else (role
/// strings, booleans, doubles) is skipped.
void SumIntFields(Json::Object& totals, const Json::Object& source) {
  for (const auto& [key, value] : source) {
    if (value.is_int()) {
      int64_t current = 0;
      if (auto it = totals.find(key);
          it != totals.end() && it->second.is_int()) {
        current = it->second.AsInt();
      }
      totals[key] = Json(current + value.AsInt());
    } else if (value.is_object()) {
      Json::Object nested;
      if (auto it = totals.find(key);
          it != totals.end() && it->second.is_object()) {
        nested = it->second.AsObject();
      }
      SumIntFields(nested, value.AsObject());
      totals[key] = Json(std::move(nested));
    }
  }
}

bool IsOkResponse(const Json& response) {
  const Json* ok_field = response.Find("ok");
  return ok_field != nullptr && ok_field->is_bool() && ok_field->AsBool();
}

/// The client's submit line with the fingerprint it routes on spliced
/// in, as text, as the cluster-internal "route_fingerprint" member.
/// The line parsed as an object that carries a "verb", so its first '{'
/// opens that object and another member follows the spliced one.
std::string WithRouteFingerprint(const std::string& line,
                                 const std::string& fingerprint) {
  const size_t open = line.find('{') + 1;
  const std::string member =
      "\"route_fingerprint\":" + Json(fingerprint).Dump() + ",";
  std::string spliced;
  spliced.reserve(line.size() + member.size());
  spliced.append(line, 0, open).append(member).append(line, open);
  return spliced;
}

/// The re-drive line of a finished csv/synthetic job: the client body
/// without its dataset, plus the fingerprint it routed on. A shard that
/// caches the fingerprint answers it at admission; any other shard
/// rejects it, having nothing to run.
std::string FingerprintOnlyLine(const Json& body,
                                const std::string& fingerprint) {
  Json::Object fields;
  for (const auto& [name, value] : body.AsObject()) {
    if (name != "csv" && name != "synthetic") fields.emplace(name, value);
  }
  fields["route_fingerprint"] = Json(fingerprint);
  return Json(std::move(fields)).Dump();
}

/// The shard-local job id of an accepted submit (the client's own or a
/// failover re-drive).
StatusOr<JobId> AcceptedJobId(const Json& accepted, size_t shard) {
  const Json* local_id = accepted.Find("job_id");
  if (local_id == nullptr || !local_id->is_int()) {
    return common::InternalError(common::StrFormat(
        "shard %zu accepted the job without a job_id", shard));
  }
  return local_id->AsInt();
}

}  // namespace

Router::Router(RouterOptions options) : options_(std::move(options)) {}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (options_.shards.empty()) {
    return common::InvalidArgumentError(
        "router needs at least one --shard endpoint");
  }
  {
    MutexLock lock(&lifecycle_mutex_);
    if (started_) {
      return common::FailedPreconditionError("router already started");
    }
  }
  ADA_ASSIGN_OR_RETURN(listener_, ServerSocket::Listen(options_.port));
  port_ = listener_.port();
  shards_.clear();
  for (const ShardEndpoints& endpoints : options_.shards) {
    auto state = std::make_unique<ShardState>();
    state->endpoints = endpoints;
    state->active_port = endpoints.primary_port;
    shards_.push_back(std::move(state));
  }
  // The ring is immutable after this point: dead shards are skipped at
  // lookup time rather than removed, so placements of the surviving
  // shards never move when one dies.
  ring_.clear();
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    for (size_t vnode = 0; vnode < kVnodesPerShard; ++vnode) {
      Fnv1a hash;
      hash.MixString("shard");
      hash.MixInt(static_cast<int64_t>(shard));
      hash.MixString("vnode");
      hash.MixInt(static_cast<int64_t>(vnode));
      ring_.emplace_back(hash.digest(), shard);
    }
  }
  std::sort(ring_.begin(), ring_.end());
  start_time_ = std::chrono::steady_clock::now();
  stopping_.store(false);
  {
    MutexLock lock(&lifecycle_mutex_);
    started_ = true;
    stop_signalled_ = false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  prober_thread_ = std::thread([this] { ProbeLoop(); });
  ADA_LOG(kInfo) << "router: listening on 127.0.0.1:" << port_ << " with "
                 << shards_.size() << " shard(s)";
  return common::OkStatus();
}

void Router::SignalStop() {
  stopping_.store(true);
  {
    MutexLock lock(&lifecycle_mutex_);
    stop_signalled_ = true;
    stopped_cv_.NotifyAll();
  }
  listener_.Shutdown();  // Unblocks the accept thread.
}

void Router::Wait() {
  MutexLock lock(&lifecycle_mutex_);
  stopped_cv_.Wait(lifecycle_mutex_, [this]() ADA_REQUIRES(lifecycle_mutex_) {
    return stop_signalled_ || !started_;
  });
}

void Router::Stop() {
  {
    MutexLock lock(&lifecycle_mutex_);
    if (!started_) return;
  }
  SignalStop();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (prober_thread_.joinable()) prober_thread_.join();
  {
    MutexLock lock(&conn_mutex_);
    for (auto& conn : conns_) {
      MutexLock conn_lock(&conn->mutex);
      conn->shutdown = true;
      // Wake the thread wherever it is parked: reading the client or
      // waiting on a forwarded upstream response.
      ShutdownConnection(conn->fd);
      if (conn->upstream != nullptr) conn->upstream->Interrupt();
    }
    for (auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
    conns_.clear();
  }
  MutexLock lock(&lifecycle_mutex_);
  started_ = false;
  stopped_cv_.NotifyAll();
}

RouterStats Router::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

size_t Router::ShardFor(const std::string& fingerprint) const {
  MutexLock lock(&mutex_);
  return ShardForLocked(fingerprint);
}

size_t Router::ShardForLocked(const std::string& fingerprint) const {
  Fnv1a hash;
  hash.MixString(fingerprint);
  const std::pair<uint64_t, size_t> point(hash.digest(), 0);
  const size_t begin = static_cast<size_t>(
      std::lower_bound(ring_.begin(), ring_.end(), point) - ring_.begin());
  for (size_t step = 0; step < ring_.size(); ++step) {
    const auto& [vnode_hash, shard] = ring_[(begin + step) % ring_.size()];
    (void)vnode_hash;
    if (shards_[shard]->alive) return shard;
  }
  return shards_.size();  // Every shard is dead.
}

void Router::AcceptLoop() {
  for (;;) {
    auto accepted = listener_.Accept();
    if (stopping_.load()) return;
    if (!accepted.ok()) {
      ADA_LOG(kWarning) << "router: accept failed: "
                        << accepted.status().message();
      // Pace a persistently failing accept (EMFILE-style) instead of
      // spinning; the wait doubles as a stop check.
      MutexLock lock(&lifecycle_mutex_);
      if (stopped_cv_.WaitFor(
              lifecycle_mutex_, 50.0,
              [this]() ADA_REQUIRES(lifecycle_mutex_) {
                return stop_signalled_;
              })) {
        return;
      }
      continue;
    }
    ReapConnections();
    auto conn = std::make_unique<ClientConn>();
    conn->fd = std::move(accepted).value();
    ClientConn* raw = conn.get();
    MutexLock lock(&conn_mutex_);
    if (stopping_.load()) return;  // conn closes on scope exit.
    conns_.push_back(std::move(conn));
    // Registered before started, under the lock: Stop() either sees a
    // joinable thread or no thread at all — never a half-moved handle.
    raw->thread = std::thread([this, raw] { ServeClient(raw); });
  }
}

void Router::ReapConnections() {
  MutexLock lock(&conn_mutex_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Router::ServeClient(ClientConn* conn) {
  LineReader reader(conn->fd);
  for (;;) {
    auto line = reader.ReadLine();
    if (!line.ok()) break;
    if (line.value().empty()) continue;
    const std::string response = HandleLine(conn, line.value());
    // An empty response means the handler already answered inline
    // (shutdown does, to beat Stop()'s connection teardown).
    if (!response.empty() && !SendAll(conn->fd, response).ok()) break;
    if (stopping_.load()) break;
  }
  conn->done.store(true);
}

std::string Router::HandleLine(ClientConn* conn, const std::string& line) {
  auto request = ParseRequest(line);
  if (!request.ok()) return ErrorResponse(request.status());
  const std::string& verb = request.value().verb;
  if (request.value().body.Find("route_fingerprint") != nullptr) {
    return ErrorResponse(common::InvalidArgumentError(
        "field 'route_fingerprint' is cluster-internal; it is not accepted "
        "at the router"));
  }
  if (verb == "submit" || verb == "ingest" || verb == "status" ||
      verb == "result" || verb == "cancel") {
    return HandleForward(conn, request.value(), line);
  }
  if (verb == "stats") return HandleStats(conn);
  if (verb == "health") return HandleHealth();
  if (verb == "shutdown") return HandleShutdown(conn);
  if (verb == "ping") {
    Json::Object fields;
    fields["service"] = "ada-health-router";
    return OkResponse(std::move(fields));
  }
  if (verb == "promote" || verb == "replicate") {
    return ErrorResponse(common::InvalidArgumentError(common::StrFormat(
        "verb '%s' is cluster-internal; it is not accepted at the router",
        verb.c_str())));
  }
  return ErrorResponse(common::InvalidArgumentError(
      common::StrFormat("unknown verb '%s'", verb.c_str())));
}

StatusOr<std::string> Router::ForwardRaw(ClientConn* conn, uint16_t port,
                                         std::string_view line,
                                         double recv_timeout_millis) {
  {
    MutexLock lock(&mutex_);
    ++stats_.forwarded;
  }
  ADA_ASSIGN_OR_RETURN(AnalysisClient upstream,
                       AnalysisClient::Connect(port, recv_timeout_millis));
  if (conn != nullptr) {
    MutexLock lock(&conn->mutex);
    if (conn->shutdown) {
      return common::UnavailableError("router is stopping");
    }
    conn->upstream = &upstream;
  }
  StatusOr<std::string> response = upstream.Exchange(line);
  if (conn != nullptr) {
    MutexLock lock(&conn->mutex);
    conn->upstream = nullptr;
  }
  return response;
}

std::string Router::HandleForward(ClientConn* conn, const Request& request,
                                  const std::string& line) {
  const Json& body = request.body;
  const bool submit = request.verb == "submit";
  const bool ingest = request.verb == "ingest";
  const bool by_route = !submit && !ingest;  // status, result, cancel.
  std::string key;  // Ring key of a submit or ingest.
  // A csv/synthetic submit goes out with its key spliced in, so the
  // shard neither re-parses a cached dataset nor fingerprints it again.
  std::string hinted_line;
  JobId global_id = 0;
  Json::Object extra;  // Job verbs' errors carry the global job id.
  if (const Json* cohort = body.Find("cohort");
      ingest || (submit && cohort != nullptr)) {
    // Cohort traffic routes on "cohort/<name>": every ingest batch and
    // every delta submit must land on the one shard that holds the
    // cohort's records. The shard validates the rest of the body.
    if (cohort == nullptr || !cohort->is_string() ||
        cohort->AsString().empty()) {
      return ErrorResponse(common::InvalidArgumentError(
          "request must carry a non-empty string 'cohort'"));
    }
    key = "cohort/" + cohort->AsString();
  } else if (submit) {
    // Validate and fingerprint with the exact code the shard will run
    // on the forwarded line, so router and shard agree on the key byte
    // for byte (the invariant the whole routing scheme rests on).
    auto job_request = BuildJobRequest(body);
    if (!job_request.ok()) return ErrorResponse(job_request.status());
    key = DatasetFingerprint(job_request.value().log,
                             job_request.value().options);
    hinted_line = WithRouteFingerprint(line, key);
  } else {
    const Json* id_field = body.Find("job_id");
    if (id_field == nullptr || !id_field->is_int()) {
      return ErrorResponse(common::InvalidArgumentError(
          "request must carry an integer 'job_id'"));
    }
    global_id = id_field->AsInt();
    extra["job_id"] = Json(static_cast<int64_t>(global_id));
  }
  // Exactly one attempt for ingest — unlike submit, a non-idempotent
  // write. A recv timeout does not prove the owning shard failed to
  // commit, so a blind resend could double-apply the batch, and
  // re-routing along the ring would append onto a shard that does not
  // hold the cohort's accumulated records (a fresh, silently-forked
  // cohort at generation 1). The failure still feeds failover
  // bookkeeping; the client retries with the `ingest` verb's
  // `expected_generation` replay guard, which the owning shard uses to
  // reject a batch that already committed.
  const std::string& submit_line = hinted_line.empty() ? line : hinted_line;
  const int attempts = ingest ? 1 : kMaxForwardAttempts;
  size_t shard = 0;
  JobId local_id = 0;
  StatusOr<std::string> response =
      common::UnavailableError("no forward attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    uint16_t port = 0;
    uint64_t generation = 0;
    {
      MutexLock lock(&mutex_);
      if (by_route) {
        auto it = routes_.find(global_id);
        if (it == routes_.end()) {
          return ErrorResponse(JobNotFoundError(global_id, next_job_id_),
                               extra);
        }
        if (!it->second.redrive_failure.ok()) {
          return ErrorResponse(it->second.redrive_failure, extra);
        }
        shard = it->second.shard;
        local_id = it->second.local_id;
        if (!shards_[shard]->alive) {
          return ErrorResponse(
              common::UnavailableError(common::StrFormat(
                  "shard %zu is down and has no follower", shard)),
              extra);
        }
      } else {
        shard = ShardForLocked(key);
        if (shard >= shards_.size()) {
          return ErrorResponse(
              common::UnavailableError("every shard is down"));
        }
      }
      port = shards_[shard]->active_port;
      generation = shards_[shard]->generation;
    }
    // A job verb goes out as the client's body with the job id
    // rewritten to the shard-local one, which may change between
    // attempts (a failover re-drive assigns fresh local ids).
    std::string rewritten;
    if (by_route) {
      Json::Object forward = body.AsObject();
      forward["job_id"] = Json(static_cast<int64_t>(local_id));
      rewritten = Json(std::move(forward)).Dump();
    }
    response = ForwardRaw(conn, port, by_route ? rewritten : submit_line,
                          kForwardTimeoutMillis);
    if (response.ok() || stopping_.load()) break;
    HandleShardFailure(shard, generation);
  }
  if (!response.ok() && ingest) {
    return ErrorResponse(common::UnavailableError(common::StrFormat(
        "'%s' owner (shard %zu) did not answer; the batch may or may not "
        "have committed — retry with expected_generation to guard against "
        "a double append: %s",
        key.c_str(), shard, response.status().ToString().c_str())));
  }
  if (!response.ok()) {
    return ErrorResponse(
        common::UnavailableError(common::StrFormat(
            "shard unavailable after %d attempts: %s", attempts,
            response.status().ToString().c_str())),
        extra);
  }
  // Ingest responses carry no job id: they pass through verbatim, and
  // validation errors come straight from the owner.
  if (ingest) return response.value() + "\n";
  if (by_route) {
    return RewriteShardResponse(response.value(), global_id, local_id);
  }
  auto parsed = Json::Parse(response.value());
  if (!parsed.ok() || !parsed.value().is_object()) {
    return ErrorResponse(common::InternalError(common::StrFormat(
        "shard %zu returned a malformed response", shard)));
  }
  if (!IsOkResponse(parsed.value())) {
    // Server-side rejection (bad request, full queue): pass the
    // shard's error through verbatim, extra fields included.
    return response.value() + "\n";
  }
  auto accepted_id = AcceptedJobId(parsed.value(), shard);
  if (!accepted_id.ok()) return ErrorResponse(accepted_id.status());
  // A cache hit is admitted already done.
  const Json* state = parsed.value().Find("state");
  const bool terminal = state != nullptr && state->is_string() &&
                        IsTerminalStateName(state->AsString());
  const bool uploaded = !hinted_line.empty();
  std::string terminal_line =
      uploaded ? FingerprintOnlyLine(body, key) : line;
  JobId assigned = 0;
  {
    MutexLock lock(&mutex_);
    stats_.retired += RetireFinished(routes_, finished_);
    assigned = next_job_id_++;
    JobRoute& route = routes_[assigned];
    route.shard = shard;
    route.local_id = accepted_id.value();
    route.uploaded = uploaded;
    route.terminal_line = std::move(terminal_line);
    ++stats_.submitted;
    // A job answered terminal in its own reply (every cache hit) never
    // holds its upload here.
    if (terminal) {
      MarkTerminalLocked(assigned, route);
    } else {
      route.redrive_line = submit_line;
    }
  }
  parsed.value().MutableObject()["job_id"] =
      Json(static_cast<int64_t>(assigned));
  return parsed.value().Dump() + "\n";
}

std::string Router::RewriteShardResponse(const std::string& response_line,
                                         JobId global_id, JobId local_id) {
  auto parsed = Json::Parse(response_line);
  if (!parsed.ok() || !parsed.value().is_object()) {
    return response_line + "\n";  // Unparseable: pass through untouched.
  }
  if (!IsOkResponse(parsed.value())) {
    StatusOr<Json> answer = ParseResponse(response_line);
    if (!answer.ok() && IsJobExpiredError(answer.status(), local_id)) {
      return ExpireRoute(global_id);
    }
  }
  Json::Object& object = parsed.value().MutableObject();
  if (object.count("job_id") != 0) {
    object["job_id"] = Json(static_cast<int64_t>(global_id));
  }
  const Json* state_field = parsed.value().Find("state");
  if (IsOkResponse(parsed.value()) && state_field != nullptr &&
      state_field->is_string() &&
      IsTerminalStateName(state_field->AsString())) {
    MutexLock lock(&mutex_);
    auto it = routes_.find(global_id);
    if (it != routes_.end() && !it->second.terminal) {
      // First terminal sighting only: a re-driven job that finishes
      // again on the follower must not double-count.
      MarkTerminalLocked(global_id, it->second);
    }
  }
  return parsed.value().Dump() + "\n";
}

std::string Router::ExpireRoute(JobId global_id) {
  common::Status expired;
  {
    MutexLock lock(&mutex_);
    expired = JobNotFoundError(global_id, next_job_id_);
    auto it = routes_.find(global_id);
    if (it != routes_.end() && it->second.redrive_failure.ok()) {
      // The shard holds nothing left to re-drive or answer: drop the
      // lines (an in-flight upload's dataset among them) and queue the
      // route for retirement.
      it->second.redrive_line.clear();
      it->second.terminal_line.clear();
      FailRouteLocked(global_id, it->second, expired);
    }
  }
  Json::Object extra;
  extra["job_id"] = Json(static_cast<int64_t>(global_id));
  return ErrorResponse(expired, std::move(extra));
}

void Router::MarkTerminalLocked(JobId id, JobRoute& route) {
  route.terminal = true;
  ++stats_.completed;
  route.redrive_line = std::exchange(route.terminal_line, std::string());
  if (route.redrive_failure.ok()) finished_.push_back(id);
}

void Router::FailRouteLocked(JobId id, JobRoute& route,
                             common::Status failure) {
  if (!route.terminal && route.redrive_failure.ok()) finished_.push_back(id);
  route.redrive_failure = std::move(failure);
}

std::string Router::HandleStats(ClientConn* conn) {
  Json::Array shard_entries;
  Json::Object totals;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    bool alive = false;
    uint16_t port = 0;
    bool using_follower = false;
    {
      MutexLock lock(&mutex_);
      alive = shards_[shard]->alive;
      port = shards_[shard]->active_port;
      using_follower = shards_[shard]->using_follower;
    }
    Json::Object entry;
    entry["shard"] = Json(static_cast<int64_t>(shard));
    entry["port"] = Json(static_cast<int64_t>(port));
    entry["alive"] = Json(alive);
    entry["using_follower"] = Json(using_follower);
    if (alive) {
      auto response = ForwardRaw(conn, port, kStatsLine, kProbeTimeoutMillis);
      StatusOr<Json> stats_json =
          response.ok() ? ParseResponse(response.value())
                        : StatusOr<Json>(response.status());
      if (stats_json.ok()) {
        SumIntFields(totals, stats_json.value().AsObject());
        entry["stats"] = stats_json.value();
      } else {
        entry["error"] = Json(stats_json.status().ToString());
      }
    }
    shard_entries.push_back(Json(std::move(entry)));
  }
  Json::Object router;
  {
    MutexLock lock(&mutex_);
    router["submitted"] = Json(stats_.submitted);
    router["completed"] = Json(stats_.completed);
    router["forwarded"] = Json(stats_.forwarded);
    router["failovers"] = Json(stats_.failovers);
    router["redriven"] = Json(stats_.redriven);
    router["dead_shards"] = Json(stats_.dead_shards);
    router["routes"] = Json(static_cast<int64_t>(routes_.size()));
    router["retired"] = Json(stats_.retired);
  }
  Json::Object fields;
  fields["router"] = Json(std::move(router));
  fields["shards"] = Json(std::move(shard_entries));
  fields["totals"] = Json(std::move(totals));
  return OkResponse(std::move(fields));
}

std::string Router::HandleHealth() {
  Json::Object fields;
  fields["service"] = "ada-health-router";
  fields["role"] = "router";
  fields["uptime_seconds"] =
      Json(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_time_)
               .count());
  Json::Array shard_entries;
  MutexLock lock(&mutex_);
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    const ShardState& state = *shards_[shard];
    Json::Object entry;
    entry["shard"] = Json(static_cast<int64_t>(shard));
    entry["primary_port"] =
        Json(static_cast<int64_t>(state.endpoints.primary_port));
    entry["follower_port"] =
        Json(static_cast<int64_t>(state.endpoints.follower_port));
    entry["active_port"] = Json(static_cast<int64_t>(state.active_port));
    entry["alive"] = Json(state.alive);
    entry["using_follower"] = Json(state.using_follower);
    entry["generation"] = Json(static_cast<int64_t>(state.generation));
    entry["consecutive_probe_failures"] =
        Json(static_cast<int64_t>(state.consecutive_probe_failures));
    shard_entries.push_back(Json(std::move(entry)));
  }
  fields["shards"] = Json(std::move(shard_entries));
  fields["failovers"] = Json(stats_.failovers);
  fields["redriven"] = Json(stats_.redriven);
  fields["routes"] = Json(static_cast<int64_t>(routes_.size()));
  fields["retired"] = Json(stats_.retired);
  return OkResponse(std::move(fields));
}

std::string Router::HandleShutdown(ClientConn* conn) {
  // Cascade before stopping: every live endpoint — the active port and
  // a not-yet-promoted follower — gets a graceful shutdown, so
  // `ada_client --router shutdown` tears the whole cluster down.
  std::vector<uint16_t> ports;
  {
    MutexLock lock(&mutex_);
    for (const auto& shard : shards_) {
      if (shard->alive) ports.push_back(shard->active_port);
      if (!shard->using_follower && shard->endpoints.follower_port != 0) {
        ports.push_back(shard->endpoints.follower_port);
      }
    }
  }
  for (uint16_t port : ports) {
    if (auto response =
            ForwardRaw(conn, port, kShutdownLine, kProbeTimeoutMillis);
        !response.ok()) {
      ADA_LOG(kWarning) << "router: shutdown cascade to port " << port
                        << " failed: " << response.status().message();
    }
  }
  // Answer the client *before* signalling stop: the moment Wait()
  // returns, the main thread's Stop() closes every client connection,
  // and it must not win the race against this response.
  Json::Object fields;
  fields["stopping"] = true;
  if (common::Status sent = SendAll(conn->fd, OkResponse(std::move(fields)));
      !sent.ok()) {
    ADA_LOG(kWarning) << "router: shutdown response lost: "
                      << sent.message();
  }
  SignalStop();
  return std::string();
}

bool Router::ProbePort(uint16_t port) {
  auto response = ForwardRaw(nullptr, port, kPingLine, kProbeTimeoutMillis);
  if (!response.ok()) return false;
  return ParseResponse(response.value()).ok();
}

void Router::ProbeLoop() {
  for (;;) {
    {
      MutexLock lock(&lifecycle_mutex_);
      if (stopped_cv_.WaitFor(lifecycle_mutex_,
                              options_.probe_interval_millis,
                              [this]() ADA_REQUIRES(lifecycle_mutex_) {
                                return stop_signalled_;
                              })) {
        return;
      }
    }
    for (size_t shard = 0; shard < shards_.size(); ++shard) {
      bool alive = false;
      uint16_t port = 0;
      uint64_t generation = 0;
      {
        MutexLock lock(&mutex_);
        alive = shards_[shard]->alive;
        port = shards_[shard]->active_port;
        generation = shards_[shard]->generation;
      }
      if (!alive) continue;
      if (stopping_.load()) return;
      if (ProbePort(port)) {
        MutexLock lock(&mutex_);
        if (shards_[shard]->generation == generation) {
          shards_[shard]->consecutive_probe_failures = 0;
        }
        continue;
      }
      int failures = 0;
      {
        MutexLock lock(&mutex_);
        ShardState& state = *shards_[shard];
        if (state.generation != generation || !state.alive) continue;
        failures = ++state.consecutive_probe_failures;
      }
      if (failures >= options_.probe_failures_before_failover) {
        HandleShardFailure(shard, generation);
      }
    }
  }
}

void Router::HandleShardFailure(size_t shard, uint64_t observed_generation) {
  ShardState& state = *shards_[shard];
  // One failover at a time per shard: concurrent forwarding threads
  // reporting the same dead primary queue up here; all but the first
  // see the bumped generation and leave.
  MutexLock failover_lock(&state.failover_mutex);
  uint16_t active_port = 0;
  {
    MutexLock lock(&mutex_);
    if (!state.alive || state.generation != observed_generation) return;
    active_port = state.active_port;
  }
  // Verify the death with one fresh round-trip: a single torn
  // connection or dropped response must not promote a follower while
  // the primary still serves — that is the spurious-failover path that
  // double-runs jobs.
  if (ProbePort(active_port)) {
    MutexLock lock(&mutex_);
    if (state.generation == observed_generation) {
      state.consecutive_probe_failures = 0;
    }
    return;
  }
  const bool has_follower =
      !state.using_follower && state.endpoints.follower_port != 0;
  ADA_LOG(kWarning) << "router: shard " << shard << " (port " << active_port
                    << ") is dead; "
                    << (has_follower ? "promoting follower"
                                     : "no follower left");
  const bool promoted = has_follower && PromoteAndRedrive(state, shard);
  MutexLock lock(&mutex_);
  if (promoted) {
    state.active_port = state.endpoints.follower_port;
    state.using_follower = true;
    state.consecutive_probe_failures = 0;
    ++state.generation;
    ++stats_.failovers;
    ADA_LOG(kInfo) << "router: shard " << shard << " now served by port "
                   << state.active_port;
  } else {
    state.alive = false;
    ++state.generation;
    ++stats_.dead_shards;
    for (auto& [id, route] : routes_) {
      if (route.shard == shard && route.redrive_failure.ok() &&
          !route.terminal) {
        FailRouteLocked(id, route,
                        common::UnavailableError(common::StrFormat(
                            "shard %zu died with no follower to fail over to",
                            shard)));
      }
    }
  }
}

bool Router::PromoteAndRedrive(ShardState& state, size_t shard) {
  const uint16_t follower = state.endpoints.follower_port;
  common::RetryPolicy policy;
  policy.max_attempts = kPromoteConnectRetries + 1;
  policy.initial_backoff_millis = 25.0;
  policy.max_backoff_millis = 500.0;
  policy.retryable_codes = {common::StatusCode::kUnavailable};
  Status promoted = common::RetryWithPolicy(
      policy, "service.router.promote", [this, follower] {
        auto response =
            ForwardRaw(nullptr, follower, kPromoteLine, kProbeTimeoutMillis);
        if (!response.ok()) return response.status();
        return ParseResponse(response.value()).status();
      });
  if (!promoted.ok()) {
    ADA_LOG(kError) << "router: shard " << shard
                    << " follower promotion failed: " << promoted.ToString();
    return false;
  }
  // Re-drive every routed job — terminal ones included, so their
  // status/result queries keep working against the follower (the
  // replicated cache answers them without a second session run).
  struct Redrive {
    JobId id;
    std::string line;
    bool fingerprint_only;  // A finished upload: no dataset to re-run.
  };
  std::vector<Redrive> to_redrive;
  {
    MutexLock lock(&mutex_);
    for (const auto& [id, route] : routes_) {
      if (route.shard == shard && route.redrive_failure.ok()) {
        to_redrive.push_back(
            Redrive{id, route.redrive_line, route.terminal && route.uploaded});
      }
    }
  }
  for (const Redrive& redrive : to_redrive) {
    auto response =
        ForwardRaw(nullptr, follower, redrive.line, kForwardTimeoutMillis);
    StatusOr<Json> parsed = response.ok()
                                ? ParseResponse(response.value())
                                : StatusOr<Json>(response.status());
    StatusOr<JobId> local_id = common::UnavailableError(common::StrFormat(
        "failover re-drive failed: %s", parsed.status().ToString().c_str()));
    if (parsed.ok()) {
      local_id = AcceptedJobId(parsed.value(), shard);
    } else if (response.ok() && redrive.fingerprint_only) {
      // The follower does not cache the fingerprint, and the line holds
      // nothing to re-run: the result died with the primary.
      local_id = common::UnavailableError(common::StrFormat(
          "result of job %lld was not replicated before shard %zu failed "
          "over; resubmit",
          static_cast<long long>(redrive.id), shard));
    }
    MutexLock lock(&mutex_);
    auto it = routes_.find(redrive.id);
    if (it == routes_.end()) continue;
    if (!local_id.ok()) {
      FailRouteLocked(redrive.id, it->second, local_id.status());
      continue;
    }
    it->second.local_id = local_id.value();
    ++stats_.redriven;
  }
  return true;
}

}  // namespace service
}  // namespace adahealth
