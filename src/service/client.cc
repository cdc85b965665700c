#include "service/client.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.h"
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

void AnalysisClient::Interrupt() const { ShutdownConnection(*connection_); }

}  // namespace service
}  // namespace adahealth
