// One client connection on the server's event loop.
//
// Owns the non-blocking socket plus its read/write buffers and drives
// the NDJSON framing: bytes in, complete request lines out (to the
// server's handler), response bytes queued back with partial-write
// resumption. A client may pipeline many request lines; they are
// dispatched strictly in order, and while a `result` wait is parked
// (PauseRequests) no further pipelined line is consumed — the unread
// socket backlog is the natural backpressure.
//
// Threading: every method runs on the event-loop thread. The server
// owns Connection objects and is the only caller; a Connection never
// destroys itself — it flips closed() and the server reaps it.
#ifndef ADAHEALTH_SERVICE_CONNECTION_H_
#define ADAHEALTH_SERVICE_CONNECTION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "service/event_loop.h"
#include "service/net_socket.h"

namespace adahealth {
namespace service {

class Connection {
 public:
  /// Receives one complete request line (no trailing newline). The
  /// handler either enqueues a response synchronously or parks the
  /// connection with PauseRequests() and responds later.
  using RequestHandler = std::function<void(Connection&, std::string line)>;

  /// `errors` is the owning server's error counter: socket failures
  /// and oversized lines on this connection are counted into it. It
  /// must stay valid while the connection handles events.
  Connection(int64_t id, FileDescriptor fd, EventLoop* loop,
             size_t max_line_bytes, std::atomic<int64_t>* errors);
  /// Unwatches and releases the socket if still open.
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers the socket with the event loop. `dispatcher` is the
  /// loop callback (the server routes it back to HandleEvents so it
  /// can reap the connection afterwards).
  [[nodiscard]] common::Status Register(
      std::function<void(uint32_t)> dispatcher, RequestHandler on_request);

  /// Drives one epoll readiness notification: reads until EAGAIN,
  /// dispatches buffered request lines, flushes pending output.
  void HandleEvents(uint32_t events);

  /// Queues response bytes and flushes as much as the socket accepts
  /// now; the rest resumes on EPOLLOUT.
  void EnqueueResponse(std::string data);

  /// Parks the connection: buffered and future request lines wait
  /// until ResumeRequests(). Reading interest is dropped, so a client
  /// flooding pipelined requests during a park is throttled by TCP.
  void PauseRequests();

  /// Ends a park and dispatches any buffered pipelined lines.
  void ResumeRequests();

  /// Graceful teardown: consume no further requests, flush what is
  /// queued, then release the socket.
  void StartDrain();

  /// Immediate teardown (idle eviction, fatal errors): drops buffered
  /// output and releases the socket now.
  void CloseNow();

  [[nodiscard]] int64_t id() const { return id_; }
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] bool awaiting() const { return awaiting_; }
  [[nodiscard]] std::chrono::steady_clock::time_point last_activity() const {
    return last_activity_;
  }

 private:
  void HandleReadable();
  void ProcessBuffered();
  void DispatchLine(std::string line);
  /// The satellite-2 guard: a line that exceeds max_line_bytes_ fails
  /// the connection with RESOURCE_EXHAUSTED instead of growing the
  /// buffer without bound.
  void FailOversizedLine();
  void FlushOutput();
  /// Recomputes the epoll interest mask and applies it on change.
  void UpdateInterest();

  const int64_t id_;
  FileDescriptor fd_;
  EventLoop* loop_;
  RequestHandler on_request_;
  const size_t max_line_bytes_;
  std::atomic<int64_t>* errors_;

  std::string inbuf_;
  size_t scan_pos_ = 0;  // inbuf_ prefix already scanned for '\n'.
  std::string outbuf_;

  bool awaiting_ = false;
  bool peer_eof_ = false;
  bool final_line_dispatched_ = false;
  bool close_after_flush_ = false;
  bool closed_ = false;
  uint32_t interest_ = 0;

  std::chrono::steady_clock::time_point last_activity_;
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_CONNECTION_H_
