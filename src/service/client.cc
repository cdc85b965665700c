#include "service/client.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "common/string_util.h"
#include "service/protocol.h"

namespace adahealth {
namespace service {

using common::Json;
using common::StatusOr;

StatusOr<AnalysisClient> AnalysisClient::Connect(uint16_t port,
                                                 double recv_timeout_millis) {
  ADA_ASSIGN_OR_RETURN(FileDescriptor connection, ConnectLoopback(port));
  if (recv_timeout_millis > 0.0) {
    ADA_RETURN_IF_ERROR(SetRecvTimeout(connection, recv_timeout_millis));
  }
  AnalysisClient client;
  client.connection_ =
      std::make_unique<FileDescriptor>(std::move(connection));
  client.reader_ = std::make_unique<LineReader>(*client.connection_);
  return client;
}

StatusOr<AnalysisClient> AnalysisClient::Connect(
    uint16_t port, const ConnectOptions& options) {
  common::RetryPolicy policy;
  policy.max_attempts = std::max(1, options.retries + 1);
  policy.initial_backoff_millis = 25.0;
  policy.max_backoff_millis = 500.0;
  // Only UNAVAILABLE (ECONNREFUSED, nothing bound yet) is worth
  // waiting out at connect time; anything else is a caller bug.
  policy.retryable_codes = {common::StatusCode::kUnavailable};
  StatusOr<AnalysisClient> connected =
      common::UnavailableError("connect never attempted");
  ADA_RETURN_IF_ERROR(common::RetryWithPolicy(
      policy, "service.client.connect", [port, &connected] {
        connected = Connect(port);
        return connected.status();
      }));
  return connected;
}

StatusOr<std::string> AnalysisClient::Exchange(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line).push_back('\n');
  ADA_RETURN_IF_ERROR(SendAll(*connection_, framed));
  return reader_->ReadLine();
}

StatusOr<Json> AnalysisClient::Call(const Json::Object& request) {
  ADA_ASSIGN_OR_RETURN(std::string line, Exchange(Json(request).Dump()));
  return ParseResponse(line);
}

StatusOr<Json> AnalysisClient::Call(const std::string& verb) {
  Json::Object request;
  request["verb"] = verb;
  return Call(request);
}

std::vector<StatusOr<Json>> AnalysisClient::CallPipelined(
    const std::vector<Json::Object>& requests) {
  std::vector<StatusOr<Json>> responses;
  responses.reserve(requests.size());
  std::string batch;
  for (const Json::Object& request : requests) {
    batch += Json(request).Dump() + "\n";
  }
  if (common::Status sent = SendAll(*connection_, batch); !sent.ok()) {
    responses.assign(requests.size(), sent);
    return responses;
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    auto line = reader_->ReadLine();
    if (!line.ok()) {
      // Transport broke mid-batch: every unanswered request gets the
      // same failure.
      for (size_t j = i; j < requests.size(); ++j) {
        responses.push_back(line.status());
      }
      break;
    }
    responses.push_back(ParseResponse(line.value()));
  }
  return responses;
}

namespace {

/// Kept links last active at most this long ago are reused; older ones
/// are closed instead. Far below a shard's default idle timeout, so a
/// shard does not evict a link just as it is reused.
constexpr auto kReuseWindow = std::chrono::seconds(1);
/// Idle links kept per port; a burst beyond it closes its extra links.
constexpr size_t kKeptPerPort = 16;

}  // namespace

UpstreamPool::~UpstreamPool() {
  for (auto& [id, link] : links_) loop_->CancelTimer(link.timer);
}

void UpstreamPool::Call(uint16_t port, std::string_view line,
                        double timeout_millis, bool fresh, Done done) {
  uint64_t id = fresh ? 0 : TakeKept(port);
  common::Status started = common::OkStatus();
  if (id == 0) {
    id = next_link_++;
    started = Open(id, port);
  }
  Link& link = links_[id];
  link.done = std::move(done);
  if (started.ok()) {
    std::string framed;
    framed.reserve(line.size() + 1);
    framed.append(line).push_back('\n');
    // Queued until a fresh connect completes; a refused connect closes
    // the connection here or on its first event.
    link.conn->EnqueueResponse(std::move(framed));
    if (link.conn->closed()) {
      started = common::UnavailableError(common::StrFormat(
          "port %u closed the connection without an answer", port));
    }
  }
  // From the loop, never from here: the caller may not be ready for it.
  link.timer = loop_->ScheduleAfter(
      started.ok() ? timeout_millis : 0.0,
      [this, id, started, port, timeout_millis] {
        Finish(id, started.ok() ? common::UnavailableError(common::StrFormat(
                                      "no answer from port %u within %.0f ms",
                                      port, timeout_millis))
                                : started);
      });
}

uint64_t UpstreamPool::TakeKept(uint16_t port) {
  std::vector<uint64_t>& kept = kept_[port];
  const auto now = std::chrono::steady_clock::now();
  while (!kept.empty()) {
    const uint64_t id = kept.back();
    kept.pop_back();
    if (now - links_.at(id).conn->last_activity() < kReuseWindow) return id;
    links_.erase(id);
  }
  return 0;
}

common::Status UpstreamPool::Open(uint64_t id, uint16_t port) {
  Link& link = links_[id];
  link.port = port;
  ADA_ASSIGN_OR_RETURN(FileDescriptor fd,
                       ConnectLoopback(port, /*non_blocking=*/true));
  link.conn = std::make_unique<Connection>(std::move(fd), loop_, kMaxLineBytes,
                                           &errors_);
  return link.conn->Register(
      [this, id](uint32_t events) { OnEvents(id, events); },
      [&link](std::string response) {
        link.conn->PauseRequests();  // The first line is the answer.
        link.response = std::move(response);
      });
}

void UpstreamPool::OnEvents(uint64_t id, uint32_t events) {
  auto it = links_.find(id);
  if (it == links_.end()) return;
  Link& link = it->second;
  link.conn->HandleEvents(events);
  // Finish and erase run here, after HandleEvents returned: `done` may
  // call again, and erasing destroys the connection.
  if (!link.done) {
    // Kept idle: the shard closed it, or sent a line nobody asked for.
    if (link.conn->closed() || link.response.has_value()) {
      std::erase(kept_[link.port], id);
      links_.erase(it);
    }
  } else if (link.response.has_value()) {
    Finish(id, *std::exchange(link.response, std::nullopt));
  } else if (link.conn->closed()) {
    Finish(id, common::UnavailableError(common::StrFormat(
                   "port %u closed the connection without an answer",
                   link.port)));
  }
}

void UpstreamPool::Finish(uint64_t id, StatusOr<std::string> response) {
  Link& link = links_.at(id);
  loop_->CancelTimer(link.timer);
  Done done = std::exchange(link.done, nullptr);
  std::vector<uint64_t>& kept = kept_[link.port];
  bool keep = response.ok() && kept.size() < kKeptPerPort;
  if (keep) {
    link.conn->ResumeRequests();
    keep = !link.conn->closed() && !link.response.has_value();
  }
  if (keep) {
    kept.push_back(id);
  } else {
    links_.erase(id);
  }
  done(std::move(response));
}

}  // namespace service
}  // namespace adahealth
