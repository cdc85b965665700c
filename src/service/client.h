// Client-side NDJSON protocol bindings, the one outbound connection of
// the service layer (ada_lint `service-outbound`): the blocking
// AnalysisClient (replication shipper, `ada_client`, tests) and the
// loop-driven UpstreamPool (every router call to a shard).
#ifndef ADAHEALTH_SERVICE_CLIENT_H_
#define ADAHEALTH_SERVICE_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "service/connection.h"
#include "service/event_loop.h"
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

 private:
  AnalysisClient() = default;

  // unique_ptr: LineReader holds a pointer to connection_, so the pair
  // must not be separated by a move of the client.
  std::unique_ptr<FileDescriptor> connection_;
  std::unique_ptr<LineReader> reader_;
};

/// Request-response exchanges with loopback ports, driven by an event
/// loop and never blocking it (the router's calls to its shards). A
/// call has its connection to itself while in flight, so a long wait (a
/// shard's `result`) holds up no other call; once answered, the
/// connection is kept for the next call to the same port, so a busy
/// port costs no connect per call. Loop thread only.
class UpstreamPool {
 public:
  /// Receives the raw response line, or UNAVAILABLE (refused, closed
  /// without an answer, no answer within the deadline).
  using Done = std::function<void(common::StatusOr<std::string> response)>;

  explicit UpstreamPool(EventLoop* loop) : loop_(loop) {}
  /// Closes every connection; an unfinished call's `done` never runs.
  ~UpstreamPool();

  UpstreamPool(const UpstreamPool&) = delete;
  UpstreamPool& operator=(const UpstreamPool&) = delete;

  /// Sends `line` (no trailing newline) to 127.0.0.1:`port`; the call
  /// is bounded by `timeout_millis`. `done` runs once, from the loop
  /// and never inside Call. `fresh` skips the kept connections: only a
  /// new connect shows that the port is served right now.
  void Call(uint16_t port, std::string_view line, double timeout_millis,
            bool fresh, Done done);

 private:
  struct Link {
    uint16_t port = 0;
    std::unique_ptr<Connection> conn;  // Null when the connect failed.
    std::optional<std::string> response;
    Done done;  // Empty while the link is kept idle.
    EventLoop::TimerId timer{};
  };

  /// A kept link to `port` that is safe to reuse; 0 when there is none.
  uint64_t TakeKept(uint16_t port);
  [[nodiscard]] common::Status Open(uint64_t id, uint16_t port);
  void OnEvents(uint64_t id, uint32_t events);
  void Finish(uint64_t id, common::StatusOr<std::string> response);

  EventLoop* loop_;
  std::atomic<int64_t> errors_{0};  // Counted by the connections, unread.
  std::map<uint64_t, Link> links_;
  std::map<uint16_t, std::vector<uint64_t>> kept_;  // Most recent last.
  uint64_t next_link_ = 1;
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_CLIENT_H_
