// Client-side NDJSON protocol bindings: one connection, one or more
// request-response exchanges. The one outbound connection of the
// service layer (ada_lint `service-outbound`): the router, the
// replication shipper, the `ada_client` CLI and the tests use it.
#ifndef ADAHEALTH_SERVICE_CLIENT_H_
#define ADAHEALTH_SERVICE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "service/net_socket.h"

namespace adahealth {
namespace service {

/// Connect-time resilience knobs (`ada_client --connect-retries`).
struct ConnectOptions {
  /// Additional attempts after the first connect fails with a
  /// retryable error (ECONNREFUSED surfaces as UNAVAILABLE) — the
  /// server may still be binding its port, or a router failover may be
  /// mid-promotion. 0 = single attempt, exactly the old behaviour.
  /// Attempts back off exponentially from 25 ms to 500 ms.
  int retries = 0;
};

/// A connected protocol client. Requests run sequentially on the one
/// connection (the protocol is strictly request-response).
class AnalysisClient {
 public:
  /// Connects to the server on 127.0.0.1:`port` in one attempt.
  /// UNAVAILABLE when nothing listens there. A `recv_timeout_millis`
  /// > 0 bounds every read: a wedged server fails it with UNAVAILABLE.
  [[nodiscard]] static common::StatusOr<AnalysisClient> Connect(
      uint16_t port, double recv_timeout_millis = 0.0);

  /// As above (no receive deadline), retrying refused/unavailable
  /// connects with exponential backoff per `options`. Returns the
  /// final attempt's error when the budget is exhausted.
  [[nodiscard]] static common::StatusOr<AnalysisClient> Connect(
      uint16_t port, const ConnectOptions& options);

  /// Sends one request line (no trailing newline) and returns the raw,
  /// unparsed response line. Transport failures are UNAVAILABLE (or
  /// OUT_OF_RANGE when the server hung up).
  [[nodiscard]] common::StatusOr<std::string> Exchange(std::string_view line);

  /// Sends one request object (the "verb" field must be set) and
  /// returns the parsed success response. A server-side error response
  /// is surfaced as its reconstructed Status; transport failures as in
  /// Exchange.
  [[nodiscard]] common::StatusOr<common::Json> Call(
      const common::Json::Object& request);

  /// Convenience wrapper: Call with just a verb.
  [[nodiscard]] common::StatusOr<common::Json> Call(const std::string& verb);

  /// Pipelines every request in one batch write, then reads the
  /// responses in order (the server answers pipelined lines strictly
  /// in sequence). Entry i is request i's parsed response or error; a
  /// transport failure fills the remaining entries with its status.
  [[nodiscard]] std::vector<common::StatusOr<common::Json>> CallPipelined(
      const std::vector<common::Json::Object>& requests);

  /// Thread-safe: wakes a call blocked on the server's reply, which
  /// then fails. The socket stays open until destruction.
  void Interrupt() const;

 private:
  AnalysisClient() = default;

  // unique_ptr: LineReader holds a pointer to connection_, so the pair
  // must not be separated by a move of the client.
  std::unique_ptr<FileDescriptor> connection_;
  std::unique_ptr<LineReader> reader_;
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_CLIENT_H_
