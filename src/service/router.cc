#include "service/router.h"

#include <algorithm>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "service/fingerprint.h"
#include "service/protocol.h"

namespace adahealth {
namespace service {

using common::Json;
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
/// Promote retries against the follower, backing off from 25 ms by
/// doubling up to 500 ms.
constexpr int kPromoteRetries = 10;
/// A request line longer than this may carry a dataset: it is parsed
/// on the shared pool instead of the loop thread, and a csv submit that
/// long is offered to its shard by fingerprint before it is sent whole.
constexpr size_t kInlineParseBytes = 16 * 1024;
/// Failsafe on a `shutdown` verb's graceful drain.
constexpr double kDrainTimeoutMillis = 5000.0;
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

/// True for a successful `ping` round trip.
bool IsPong(const StatusOr<std::string>& response) {
  return response.ok() && ParseResponse(response.value()).ok();
}

/// A csv/synthetic submit: the router fingerprints its dataset to route
/// it (a client-supplied route_fingerprint is rejected instead).
bool NeedsFingerprint(const Request& request) {
  return request.verb == "submit" && request.body.Find("cohort") == nullptr &&
         request.body.Find("route_fingerprint") == nullptr;
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

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      host_("router", ConnectionLimits{}),
      upstream_(&host_.loop()) {}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (options_.shards.empty()) {
    return common::InvalidArgumentError(
        "router needs at least one --shard endpoint");
  }
  if (host_.running()) {
    return common::FailedPreconditionError("router already started");
  }
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
  ADA_RETURN_IF_ERROR(host_.Start([this](std::string line, Reply reply) {
    OnLine(std::move(line), std::move(reply));
  }));
  host_.loop().Post([this] { ScheduleProbeRound(); });
  ADA_LOG(kInfo) << "router: listening on 127.0.0.1:" << port() << " with "
                 << shards_.size() << " shard(s)";
  return common::OkStatus();
}

void Router::Wait() { host_.Wait(); }

void Router::Stop() { host_.Stop(/*failsafe_millis=*/250.0); }

RouterStats Router::stats() const {
  return RouterStats{counters_.submitted.load(), counters_.completed.load(),
                     counters_.forwarded.load(), counters_.failovers.load(),
                     counters_.redriven.load(),  counters_.dead_shards.load(),
                     counters_.retired.load(),   counters_.memo_hits.load()};
}

size_t Router::ShardFor(const std::string& fingerprint) const {
  Fnv1a hash;
  hash.MixString(fingerprint);
  const std::pair<uint64_t, size_t> point(hash.digest(), 0);
  const size_t begin = static_cast<size_t>(
      std::lower_bound(ring_.begin(), ring_.end(), point) - ring_.begin());
  for (size_t step = 0; step < ring_.size(); ++step) {
    const auto& [vnode_hash, shard] = ring_[(begin + step) % ring_.size()];
    (void)vnode_hash;
    if (shards_[shard]->alive.load()) return shard;
  }
  return shards_.size();  // Every shard is dead.
}

void Router::OnLine(std::string line, Reply reply) {
  auto prepared = std::make_shared<Prepared>();
  prepared->line = std::move(line);
  // A short line is parsed here and dispatched at once unless it is a
  // csv/synthetic submit; a longer one may carry a dataset.
  const bool parse_here = prepared->line.size() <= kInlineParseBytes;
  if (parse_here) {
    prepared->request = ParseRequest(prepared->line);
    if (!prepared->request.ok() ||
        !NeedsFingerprint(prepared->request.value())) {
      Dispatch(std::move(reply), std::move(*prepared));
      return;
    }
  }
  // A line prepared before is dispatched from the memo: a long one is
  // looked up before it is parsed, a short submit after.
  prepared->memo_key = memo_.KeyOf(prepared->line);
  const UploadRoute* known = ADA_FAILPOINT("router.upload_memo").ok()
                                 ? memo_.Find(prepared->memo_key)
                                 : nullptr;
  if (known != nullptr) {
    counters_.memo_hits.fetch_add(1);
    prepared->upload = *known;
    if (!parse_here) {
      prepared->request = Request{"submit", std::move(prepared->upload.body)};
    }
    Dispatch(std::move(reply), std::move(*prepared));
    return;
  }
  // Parsing, building and fingerprinting a dataset takes milliseconds:
  // a pool task does it while the line waits for its reply. It holds
  // the loop, not the router: a Post after the loop exited is dropped.
  std::function<void()> prepare = [this, loop = host_.shared_loop(), reply,
                                   prepared, parse_here] {
    // The error a throw maps to is the client's answer: a throw that
    // reached the pool's trap would only abandon the reply.
    try {
      Prepare(*prepared, parse_here);
    } catch (const std::bad_alloc&) {
      prepared->request = common::ResourceExhaustedError(
          "out of memory preparing the request");
    } catch (...) {
      ADA_LOG(kWarning) << "router: preparing a request threw";
      prepared->request =
          common::InternalError("preparing the request threw");
    }
    loop->Post([this, reply, prepared] {
      if (!prepared->upload.fingerprint.empty()) {
        memo_.Insert(prepared->memo_key, prepared->upload);
      }
      Dispatch(reply, std::move(*prepared));
    });
  };
  if (!common::ThreadPool::Shared().TrySchedule(prepare)) prepare();
}

void Router::Prepare(Prepared& prepared, bool parsed) {
  if (Status injected = ADA_FAILPOINT("router.prepare"); !injected.ok()) {
    prepared.request = injected;
    return;
  }
  if (!parsed) prepared.request = ParseRequest(prepared.line);
  if (!prepared.request.ok() || !NeedsFingerprint(prepared.request.value())) {
    return;
  }
  StatusOr<UploadRoute> route = Fingerprint(prepared.request.value().body);
  if (route.ok()) {
    prepared.upload = std::move(route).value();
  } else {
    prepared.request = route.status();
  }
}

StatusOr<UploadRoute> Router::Fingerprint(const Json& body) {
  ADA_ASSIGN_OR_RETURN(JobRequest job_request, BuildJobRequest(body));
  UploadRoute route;
  route.fingerprint =
      DatasetFingerprint(job_request.log, job_request.options);
  Json::Object fields;
  for (const auto& [name, value] : body.AsObject()) {
    if (name != "csv" && name != "synthetic") fields.emplace(name, value);
  }
  route.body = Json(fields);
  // A shard that caches the fingerprint answers the offer line at
  // admission; any other shard rejects it, having nothing to run.
  fields["route_fingerprint"] = Json(route.fingerprint);
  route.offer_line = Json(std::move(fields)).Dump();
  return route;
}

std::string& Router::Forward::WholeLine() {
  if (uploaded && !spliced) {
    line = WithRouteFingerprint(line, key);
    spliced = true;
  }
  return line;
}

void Router::Dispatch(Reply reply, Prepared prepared) {
  if (!prepared.request.ok()) {
    reply.Send(ErrorResponse(prepared.request.status()));
    return;
  }
  const std::string& verb = prepared.request.value().verb;
  if (prepared.request.value().body.Find("route_fingerprint") != nullptr) {
    reply.Send(ErrorResponse(common::InvalidArgumentError(
        "field 'route_fingerprint' is cluster-internal; it is not accepted "
        "at the router")));
  } else if (verb == "submit" || verb == "ingest" || verb == "status" ||
             verb == "result" || verb == "cancel") {
    StartForward(std::move(reply), std::move(prepared));
  } else if (verb == "stats") {
    HandleStats(std::move(reply));
  } else if (verb == "health") {
    reply.Send(HandleHealth());
  } else if (verb == "shutdown") {
    HandleShutdown(std::move(reply));
  } else if (verb == "ping") {
    Json::Object fields;
    fields["service"] = "ada-health-router";
    reply.Send(OkResponse(std::move(fields)));
  } else if (verb == "promote" || verb == "replicate") {
    reply.Send(ErrorResponse(common::InvalidArgumentError(common::StrFormat(
        "verb '%s' is cluster-internal; it is not accepted at the router",
        verb.c_str()))));
  } else {
    reply.Send(ErrorResponse(common::InvalidArgumentError(
        common::StrFormat("unknown verb '%s'", verb.c_str()))));
  }
}

void Router::Call(uint16_t port, std::string_view line, double timeout_millis,
                  UpstreamPool::Done done, bool fresh) {
  counters_.forwarded.fetch_add(1);
  upstream_.Call(port, line, timeout_millis, fresh, std::move(done));
}

void Router::StartForward(Reply reply, Prepared prepared) {
  const Request& request = prepared.request.value();
  const Json& body = request.body;
  const bool submit = request.verb == "submit";
  auto forward = std::make_shared<Forward>(std::move(reply));
  forward->ingest = request.verb == "ingest";
  if (const Json* cohort = body.Find("cohort");
      forward->ingest || (submit && cohort != nullptr)) {
    // Cohort traffic routes to the one shard that holds the cohort's
    // records. The shard validates the rest of the body.
    if (cohort == nullptr || !cohort->is_string() ||
        cohort->AsString().empty()) {
      forward->reply.Send(ErrorResponse(common::InvalidArgumentError(
          "request must carry a non-empty string 'cohort'")));
      return;
    }
    forward->key = "cohort/" + cohort->AsString();
    forward->terminal_line = prepared.line;
  } else if (submit) {
    forward->key = std::move(prepared.upload.fingerprint);
    forward->terminal_line = std::move(prepared.upload.offer_line);
    forward->uploaded = true;
  } else {
    const Json* id_field = body.Find("job_id");
    if (id_field == nullptr || !id_field->is_int()) {
      forward->reply.Send(ErrorResponse(common::InvalidArgumentError(
          "request must carry an integer 'job_id'")));
      return;
    }
    forward->global_id = id_field->AsInt();
    forward->body = body;
  }
  forward->line = std::move(prepared.line);
  // Exactly one attempt for ingest, a non-idempotent write: a timeout
  // does not prove the batch failed to commit, and another shard does
  // not hold the cohort. The failure still feeds failover; the client
  // retries with the `expected_generation` replay guard.
  forward->attempts_left = forward->ingest ? 1 : kMaxForwardAttempts;
  Attempt(forward);
}

void Router::Attempt(const std::shared_ptr<Forward>& forward) {
  Forward& f = *forward;
  const bool by_route = f.key.empty();  // status, result, cancel.
  Json::Object extra;  // Job verbs' errors carry the global job id.
  size_t shard = 0;
  if (by_route) {
    extra["job_id"] = Json(static_cast<int64_t>(f.global_id));
    auto it = routes_.find(f.global_id);
    if (it == routes_.end()) {
      f.reply.Send(
          ErrorResponse(JobNotFoundError(f.global_id, next_job_id_), extra));
      return;
    }
    if (!it->second.redrive_failure.ok()) {
      f.reply.Send(ErrorResponse(it->second.redrive_failure, extra));
      return;
    }
    shard = it->second.shard;
    f.local_id = it->second.local_id;
  } else {
    shard = ShardFor(f.key);
    if (shard >= shards_.size()) {
      f.reply.Send(
          ErrorResponse(common::UnavailableError("every shard is down")));
      return;
    }
  }
  ShardState& state = *shards_[shard];
  if (state.failing_over) {  // Re-resolved once it ends.
    state.after_failover.push_back([this, forward] { Attempt(forward); });
    return;
  }
  if (!state.alive.load()) {
    f.reply.Send(ErrorResponse(
        common::UnavailableError(common::StrFormat(
            "shard %zu is down and has no follower", shard)),
        extra));
    return;
  }
  f.shard = shard;
  f.generation = state.generation;
  // A job verb goes out with the current shard-local job id.
  std::string rewritten;
  if (by_route) {
    Json::Object body = f.body.AsObject();
    body["job_id"] = Json(static_cast<int64_t>(f.local_id));
    rewritten = Json(std::move(body)).Dump();
  }
  UpstreamPool::Done replied = [this, forward](StatusOr<std::string> response) {
    Forward& f = *forward;
    if (response.ok()) {
      f.reply.Send(ShardReplied(f, response.value()));
      return;
    }
    --f.attempts_left;
    if (host_.draining()) {
      f.reply.Send(ForwardFailed(f, response.status()));
      return;
    }
    HandleShardFailure(f.shard, f.generation,
                       [this, forward, failure = response.status()] {
                         if (forward->attempts_left > 0) {
                           Attempt(forward);
                         } else {
                           forward->reply.Send(
                               ForwardFailed(*forward, failure));
                         }
                       });
  };
  if (f.uploaded && f.line.size() > kInlineParseBytes) {
    // A shard that caches the upload admits it by its fingerprint alone
    // and answers as it would the whole line; one that does not admits
    // nothing and rejects it. Only then does the dataset go out.
    Call(state.active_port, f.terminal_line, kForwardTimeoutMillis,
         [this, forward, port = state.active_port,
          replied](StatusOr<std::string> response) {
           if (!response.ok() || ParseResponse(response.value()).ok()) {
             replied(std::move(response));
           } else {
             Call(port, forward->WholeLine(), kForwardTimeoutMillis, replied);
           }
         });
    return;
  }
  Call(state.active_port, by_route ? rewritten : f.WholeLine(),
       kForwardTimeoutMillis, std::move(replied));
}

std::string Router::ForwardFailed(const Forward& forward,
                                  const Status& status) const {
  if (forward.ingest) {
    return ErrorResponse(common::UnavailableError(common::StrFormat(
        "'%s' owner (shard %zu) did not answer; the batch may or may not "
        "have committed — retry with expected_generation to guard against "
        "a double append: %s",
        forward.key.c_str(), forward.shard, status.ToString().c_str())));
  }
  Json::Object extra;
  if (forward.key.empty()) {
    extra["job_id"] = Json(static_cast<int64_t>(forward.global_id));
  }
  return ErrorResponse(
      common::UnavailableError(common::StrFormat(
          "shard unavailable after %d attempts: %s", kMaxForwardAttempts,
          status.ToString().c_str())),
      std::move(extra));
}

std::string Router::ShardReplied(Forward& forward,
                                 const std::string& response) {
  // Ingest responses carry no job id: they pass through verbatim, and
  // validation errors come straight from the owner.
  if (forward.ingest) return response + "\n";
  if (forward.key.empty()) {
    return RewriteShardResponse(response, forward.global_id,
                                forward.local_id);
  }
  auto parsed = Json::Parse(response);
  if (!parsed.ok() || !parsed.value().is_object()) {
    return ErrorResponse(common::InternalError(common::StrFormat(
        "shard %zu returned a malformed response", forward.shard)));
  }
  if (!IsOkResponse(parsed.value())) {
    // Server-side rejection (bad request, full queue): pass the
    // shard's error through verbatim, extra fields included.
    return response + "\n";
  }
  auto accepted_id = AcceptedJobId(parsed.value(), forward.shard);
  if (!accepted_id.ok()) return ErrorResponse(accepted_id.status());
  // A cache hit is admitted already done.
  const Json* state = parsed.value().Find("state");
  const bool terminal = state != nullptr && state->is_string() &&
                        IsTerminalStateName(state->AsString());
  counters_.retired.fetch_add(RetireFinished(routes_, finished_));
  const JobId assigned = next_job_id_++;
  JobRoute& route = routes_[assigned];
  route.shard = forward.shard;
  route.local_id = accepted_id.value();
  route.uploaded = forward.uploaded;
  route.terminal_line = std::move(forward.terminal_line);
  counters_.submitted.fetch_add(1);
  // A job answered terminal in its own reply (every cache hit) never
  // holds its upload here.
  if (terminal) {
    MarkTerminal(assigned, route);
  } else {
    route.redrive_line = std::move(forward.WholeLine());
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
    auto it = routes_.find(global_id);
    if (it != routes_.end() && !it->second.terminal) {
      // First terminal sighting only: a re-driven job that finishes
      // again on the follower must not double-count.
      MarkTerminal(global_id, it->second);
    }
  }
  return parsed.value().Dump() + "\n";
}

std::string Router::ExpireRoute(JobId global_id) {
  const Status expired = JobNotFoundError(global_id, next_job_id_);
  auto it = routes_.find(global_id);
  if (it != routes_.end() && it->second.redrive_failure.ok()) {
    // The shard holds nothing left to re-drive or answer: drop the
    // lines (an in-flight upload's dataset among them) and queue the
    // route for retirement.
    it->second.redrive_line.clear();
    it->second.terminal_line.clear();
    FailRoute(global_id, it->second, expired);
  }
  Json::Object extra;
  extra["job_id"] = Json(static_cast<int64_t>(global_id));
  return ErrorResponse(expired, std::move(extra));
}

void Router::MarkTerminal(JobId id, JobRoute& route) {
  route.terminal = true;
  counters_.completed.fetch_add(1);
  route.redrive_line = std::exchange(route.terminal_line, std::string());
  if (route.redrive_failure.ok()) finished_.push_back(id);
}

void Router::FailRoute(JobId id, JobRoute& route, Status failure) {
  if (!route.terminal && route.redrive_failure.ok()) finished_.push_back(id);
  route.redrive_failure = std::move(failure);
}

void Router::FanOut(
    const std::vector<uint16_t>& ports, std::string_view line,
    std::function<void(size_t, StatusOr<std::string>)> each,
    std::function<void()> finish) {
  auto pending = std::make_shared<size_t>(
      ports.size() - std::count(ports.begin(), ports.end(), 0));
  if (*pending == 0) finish();
  for (size_t i = 0; i < ports.size(); ++i) {
    if (ports[i] == 0) continue;
    Call(ports[i], line, kProbeTimeoutMillis,
         [i, pending, each, finish](StatusOr<std::string> response) {
           each(i, std::move(response));
           if (--*pending == 0) finish();
         });
  }
}

void Router::HandleStats(Reply reply) {
  auto entries = std::make_shared<std::vector<Json::Object>>();
  std::vector<uint16_t> ports;  // 0 for a dead shard: not asked.
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    const ShardState& state = *shards_[shard];
    Json::Object entry;
    entry["shard"] = Json(static_cast<int64_t>(shard));
    entry["port"] = Json(static_cast<int64_t>(state.active_port));
    entry["alive"] = Json(state.alive.load());
    entry["using_follower"] = Json(state.using_follower);
    entries->push_back(std::move(entry));
    ports.push_back(state.alive.load() ? state.active_port : 0);
  }
  FanOut(
      ports, kStatsLine,
      [entries](size_t shard, StatusOr<std::string> response) {
        StatusOr<Json> stats = response.ok()
                                   ? ParseResponse(response.value())
                                   : StatusOr<Json>(response.status());
        Json::Object& entry = (*entries)[shard];
        if (stats.ok()) {
          entry["stats"] = std::move(stats).value();
        } else {
          entry["error"] = Json(stats.status().ToString());
        }
      },
      [this, reply, entries] {
        reply.Send(StatsResponse(std::move(*entries)));
      });
}

std::string Router::StatsResponse(std::vector<Json::Object> shards) const {
  Json::Object totals;
  Json::Array entries;
  for (Json::Object& entry : shards) {
    if (auto stats = entry.find("stats"); stats != entry.end()) {
      SumIntFields(totals, stats->second.AsObject());
    }
    entries.push_back(Json(std::move(entry)));
  }
  Json::Object router;
  router["submitted"] = Json(counters_.submitted.load());
  router["completed"] = Json(counters_.completed.load());
  router["forwarded"] = Json(counters_.forwarded.load());
  router["failovers"] = Json(counters_.failovers.load());
  router["redriven"] = Json(counters_.redriven.load());
  router["dead_shards"] = Json(counters_.dead_shards.load());
  router["routes"] = Json(static_cast<int64_t>(routes_.size()));
  router["retired"] = Json(counters_.retired.load());
  router["memo_hits"] = Json(counters_.memo_hits.load());
  router["memo_entries"] = Json(static_cast<int64_t>(memo_.size()));
  Json::Object fields;
  fields["router"] = Json(std::move(router));
  fields["shards"] = Json(std::move(entries));
  fields["totals"] = Json(std::move(totals));
  return OkResponse(std::move(fields));
}

std::string Router::HandleHealth() const {
  Json::Object fields;
  fields["service"] = "ada-health-router";
  fields["role"] = "router";
  fields["uptime_seconds"] =
      Json(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_time_)
               .count());
  Json::Array shard_entries;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    const ShardState& state = *shards_[shard];
    Json::Object entry;
    entry["shard"] = Json(static_cast<int64_t>(shard));
    entry["primary_port"] =
        Json(static_cast<int64_t>(state.endpoints.primary_port));
    entry["follower_port"] =
        Json(static_cast<int64_t>(state.endpoints.follower_port));
    entry["active_port"] = Json(static_cast<int64_t>(state.active_port));
    entry["alive"] = Json(state.alive.load());
    entry["using_follower"] = Json(state.using_follower);
    entry["generation"] = Json(static_cast<int64_t>(state.generation));
    entry["consecutive_probe_failures"] =
        Json(static_cast<int64_t>(state.consecutive_probe_failures));
    shard_entries.push_back(Json(std::move(entry)));
  }
  fields["shards"] = Json(std::move(shard_entries));
  fields["failovers"] = Json(counters_.failovers.load());
  fields["redriven"] = Json(counters_.redriven.load());
  fields["routes"] = Json(static_cast<int64_t>(routes_.size()));
  fields["retired"] = Json(counters_.retired.load());
  return OkResponse(std::move(fields));
}

void Router::HandleShutdown(Reply reply) {
  // Cascade first: every live endpoint — the active port and a
  // not-yet-promoted follower — gets a graceful shutdown, so
  // `ada_client --router shutdown` tears the whole cluster down. The
  // drain then flushes the answer.
  std::vector<uint16_t> ports;
  for (const auto& shard : shards_) {
    if (shard->alive.load()) ports.push_back(shard->active_port);
    if (!shard->using_follower && shard->endpoints.follower_port != 0) {
      ports.push_back(shard->endpoints.follower_port);
    }
  }
  FanOut(
      ports, kShutdownLine,
      [ports](size_t i, StatusOr<std::string> response) {
        if (!response.ok()) {
          ADA_LOG(kWarning) << "router: shutdown cascade to port "
                            << ports[i]
                            << " failed: " << response.status().message();
        }
      },
      [this, reply] {
        Json::Object fields;
        fields["stopping"] = true;
        reply.Send(OkResponse(std::move(fields)));
        host_.BeginDrain(kDrainTimeoutMillis);
      });
}

void Router::ScheduleProbeRound() {
  host_.loop().ScheduleAfter(options_.probe_interval_millis, [this] {
    if (host_.draining()) return;
    for (size_t shard = 0; shard < shards_.size(); ++shard) {
      ShardState& state = *shards_[shard];
      if (!state.alive.load() || state.probing || state.failing_over) continue;
      state.probing = true;
      const uint64_t generation = state.generation;
      Call(state.active_port, kPingLine, kProbeTimeoutMillis,
           [this, shard, generation](StatusOr<std::string> pong) {
             ShardState& state = *shards_[shard];
             state.probing = false;
             if (!state.alive.load() || state.generation != generation) return;
             if (IsPong(pong)) {
               state.consecutive_probe_failures = 0;
             } else if (++state.consecutive_probe_failures >=
                        options_.probe_failures_before_failover) {
               HandleShardFailure(shard, generation, [] {});
             }
           });
    }
    ScheduleProbeRound();
  });
}

void Router::HandleShardFailure(size_t shard, uint64_t generation,
                                std::function<void()> then) {
  ShardState& state = *shards_[shard];
  if (!state.alive.load() || state.generation != generation) {
    then();  // Already handled.
    return;
  }
  state.after_failover.push_back(std::move(then));
  if (state.failing_over) return;  // Reported again while it runs.
  state.failing_over = true;
  // Verify the death with one round trip on a fresh connection: a torn
  // connection must not promote a follower while the primary serves
  // (double runs).
  Call(
      state.active_port, kPingLine, kProbeTimeoutMillis,
      [this, shard](StatusOr<std::string> pong) {
         ShardState& state = *shards_[shard];
         if (IsPong(pong)) {
           state.consecutive_probe_failures = 0;
           EndFailover(shard);
           return;
         }
         const bool has_follower =
             !state.using_follower && state.endpoints.follower_port != 0;
         ADA_LOG(kWarning) << "router: shard " << shard << " (port "
                           << state.active_port << ") is dead; "
                           << (has_follower ? "promoting follower"
                                            : "no follower left");
         has_follower ? Promote(shard, 0) : MarkDead(shard);
      },
      /*fresh=*/true);
}

void Router::Promote(size_t shard, int attempt) {
  Call(shards_[shard]->endpoints.follower_port, kPromoteLine,
       kProbeTimeoutMillis,
       [this, shard, attempt](StatusOr<std::string> response) {
         const Status promoted = response.ok()
                                     ? ParseResponse(response.value()).status()
                                     : response.status();
         if (promoted.ok()) {
           // Re-drive every route, terminal ones included, so their
           // queries keep working against the follower's cache.
           std::vector<JobId> ids;
           for (const auto& [id, route] : routes_) {
             if (route.shard == shard && route.redrive_failure.ok()) {
               ids.push_back(id);
             }
           }
           Redrive(shard, std::move(ids), 0);
           return;
         }
         if (promoted.code() == common::StatusCode::kUnavailable &&
             attempt < kPromoteRetries && !host_.draining()) {
           const double backoff = std::min(25.0 * (1 << attempt), 500.0);
           host_.loop().ScheduleAfter(backoff, [this, shard, attempt] {
             Promote(shard, attempt + 1);
           });
           return;
         }
         ADA_LOG(kError) << "router: shard " << shard
                         << " follower promotion failed: "
                         << promoted.ToString();
         MarkDead(shard);
       });
}

void Router::Redrive(size_t shard, std::vector<JobId> ids, size_t next) {
  ShardState& state = *shards_[shard];
  for (; next < ids.size(); ++next) {
    auto it = routes_.find(ids[next]);
    if (it == routes_.end() || !it->second.redrive_failure.ok()) continue;
    // A finished upload: no dataset to re-run.
    const bool fingerprint_only = it->second.terminal && it->second.uploaded;
    const JobId id = ids[next];
    Call(state.endpoints.follower_port, it->second.redrive_line,
         kForwardTimeoutMillis,
         [this, shard, ids = std::move(ids), next, id,
          fingerprint_only](StatusOr<std::string> response) mutable {
           StatusOr<Json> parsed = response.ok()
                                       ? ParseResponse(response.value())
                                       : StatusOr<Json>(response.status());
           StatusOr<JobId> local_id = common::UnavailableError(
               common::StrFormat("failover re-drive failed: %s",
                                 parsed.status().ToString().c_str()));
           if (parsed.ok()) {
             local_id = AcceptedJobId(parsed.value(), shard);
           } else if (response.ok() && fingerprint_only) {
             // Nothing to re-run, and the follower lacks the result.
             local_id = common::UnavailableError(common::StrFormat(
                 "result of job %lld was not replicated before shard %zu "
                 "failed over; resubmit",
                 static_cast<long long>(id), shard));
           }
           if (auto it = routes_.find(id); it != routes_.end()) {
             if (local_id.ok()) {
               it->second.local_id = local_id.value();
               counters_.redriven.fetch_add(1);
             } else {
               FailRoute(id, it->second, local_id.status());
             }
           }
           Redrive(shard, std::move(ids), next + 1);
         });
    return;
  }
  state.active_port = state.endpoints.follower_port;
  state.using_follower = true;
  state.consecutive_probe_failures = 0;
  ++state.generation;
  counters_.failovers.fetch_add(1);
  ADA_LOG(kInfo) << "router: shard " << shard << " now served by port "
                 << state.active_port;
  EndFailover(shard);
}

void Router::MarkDead(size_t shard) {
  ShardState& state = *shards_[shard];
  state.alive.store(false);
  ++state.generation;
  counters_.dead_shards.fetch_add(1);
  for (auto& [id, route] : routes_) {
    if (route.shard == shard && route.redrive_failure.ok() &&
        !route.terminal) {
      FailRoute(id, route,
                common::UnavailableError(common::StrFormat(
                    "shard %zu died with no follower to fail over to",
                    shard)));
    }
  }
  EndFailover(shard);
}

void Router::EndFailover(size_t shard) {
  ShardState& state = *shards_[shard];
  state.failing_over = false;
  for (auto& resume : std::exchange(state.after_failover, {})) resume();
}

}  // namespace service
}  // namespace adahealth
