// The service layer's one connection model: a listener and every
// connection multiplexed on one epoll loop thread.
//
// Connection drives one non-blocking socket: bytes in, complete lines
// out (strictly in order, however many the peer pipelines), queued
// bytes back with partial-write resumption. While it is paused no
// further line is consumed; the unread backlog is the backpressure.
//
// ConnectionHost is what the shard server and the router both own: the
// listener, the loop thread, accept and shed at the connection budget,
// the connection table, the idle sweep and the drain. Its owner gets
// each line with a Reply, the line's one answer. A line sent its answer
// inside its own dispatch costs nothing more; otherwise the connection
// pauses, and the lines behind it wait, until the reply is sent (a
// shard's `result` wait, a router's forward). A waiting connection
// holds no thread. A reply whose every copy is dropped unsent answers
// with its abandon answer, and a drain sends that answer to every reply
// still pending, so every line gets exactly one answer, in order.
//
// Threading: Start/Stop/Wait, the counters and EventLoop::Post are
// thread-safe, and a Reply copy may be dropped on any thread;
// everything else runs on the loop thread.
#ifndef ADAHEALTH_SERVICE_CONNECTION_H_
#define ADAHEALTH_SERVICE_CONNECTION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/sync.h"
#include "service/event_loop.h"
#include "service/net_socket.h"

namespace adahealth {
namespace service {

/// Default concurrent-connection budget of a shard or the router.
inline constexpr size_t kDefaultMaxConnections = 1024;
/// Default idle time after which a connection is evicted.
inline constexpr double kDefaultIdleTimeoutMillis = 300000.0;

class Connection {
 public:
  /// Receives one complete line (no trailing newline). The handler
  /// either answers it synchronously or pauses the connection with
  /// PauseRequests() and answers later.
  using LineHandler = std::function<void(std::string line)>;

  /// `errors` is the owner's error counter: socket failures and
  /// oversized lines on this connection are counted into it. It must
  /// stay valid while the connection handles events.
  Connection(FileDescriptor fd, EventLoop* loop, size_t max_line_bytes,
             std::atomic<int64_t>* errors);
  ~Connection();  // Unwatches and releases the socket if still open.

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Registers the socket with the loop. `dispatcher` is the loop
  /// callback; it calls HandleEvents, so the owner can reap the
  /// connection afterwards (a Connection never destroys itself: it
  /// flips closed() and its owner reaps it).
  [[nodiscard]] common::Status Register(
      std::function<void(uint32_t)> dispatcher, LineHandler on_line);
  /// Drives one readiness notification: reads one chunk, dispatches
  /// the complete lines buffered, flushes pending output.
  void HandleEvents(uint32_t events);
  /// Queues bytes and flushes as much as the socket takes now; the rest
  /// resumes on EPOLLOUT.
  void EnqueueResponse(std::string data);
  /// Pauses the connection: buffered and future lines wait until
  /// ResumeRequests(). Reading interest is dropped, so a peer that
  /// floods pipelined lines during a pause is throttled by TCP.
  void PauseRequests();
  /// Ends a pause and dispatches any buffered lines. Called from inside
  /// a line's own dispatch, it lets that dispatch loop go on instead.
  void ResumeRequests();
  /// Graceful teardown: consumes no further line, flushes what is
  /// queued, then releases the socket; a paused connection first waits
  /// for ResumeRequests().
  void StartDrain();
  /// Immediate teardown (idle eviction, fatal errors): drops buffered
  /// output and releases the socket now.
  void CloseNow();

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] bool paused() const { return paused_; }
  [[nodiscard]] std::chrono::steady_clock::time_point last_activity() const {
    return last_activity_;
  }

 private:
  void HandleReadable();
  void ProcessBuffered();
  void DispatchLine(std::string line);
  /// A line over max_line_bytes_ fails the connection with
  /// RESOURCE_EXHAUSTED instead of growing the buffer without bound.
  void FailOversizedLine();
  void FlushOutput();
  void UpdateInterest();

  FileDescriptor fd_;
  EventLoop* loop_;
  LineHandler on_line_;
  const size_t max_line_bytes_;
  std::atomic<int64_t>* errors_;

  std::string inbuf_;
  size_t scan_pos_ = 0;  // inbuf_ prefix already scanned for '\n'.
  std::string outbuf_;  // Empty once everything queued is sent.
  /// outbuf_ prefix already sent; dropped once it passes half of it.
  size_t out_sent_ = 0;

  bool paused_ = false;
  bool dispatching_ = false;  // ProcessBuffered is on the stack.
  bool peer_eof_ = false;
  bool final_line_dispatched_ = false;
  bool close_after_flush_ = false;
  bool closed_ = false;
  uint32_t interest_ = 0;

  std::chrono::steady_clock::time_point last_activity_;
};

struct ConnectionLimits {
  uint16_t port = 0;  // 0 = kernel-assigned (see ConnectionHost::port()).
  /// Accepts beyond this are shed with RESOURCE_EXHAUSTED (>= 1).
  size_t max_connections = kDefaultMaxConnections;
  /// Silent connections that owe no reply are evicted after this;
  /// <= 0: never.
  double idle_timeout_millis = kDefaultIdleTimeoutMillis;
  size_t max_line_bytes = kMaxLineBytes;  // Clamped to >= 1.
};

struct ConnectionCounters {
  std::atomic<int64_t> open{0};
  std::atomic<int64_t> total{0};
  std::atomic<int64_t> shed{0};
  std::atomic<int64_t> idle_disconnects{0};
  std::atomic<int64_t> errors{0};  // I/O, oversized and unparsable lines.
};

class ConnectionHost;

/// The answer one request line is owed. Copies share one state (a
/// std::function cannot hold a move-only capture), and exactly one
/// answer is sent: the first Send, or else the abandon answer, posted
/// to the loop when the last copy goes away unsent or sent by a drain.
class Reply {
 public:
  /// Answers the line and resumes its connection's intake. Only the
  /// first Send takes effect, and none after the reply was abandoned.
  /// Loop thread only.
  void Send(std::string line) const;
  /// Replaces the abandon answer (UNAVAILABLE by default). Loop thread
  /// only, before a copy leaves it.
  void AbandonWith(std::string line) const;

 private:
  friend class ConnectionHost;
  struct State;
  explicit Reply(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

class ConnectionHost {
 public:
  using LineHandler = std::function<void(std::string line, Reply reply)>;

  /// `name` prefixes log lines and the shed message.
  ConnectionHost(const char* name, ConnectionLimits limits);
  ~ConnectionHost();  // Stop()s.

  ConnectionHost(const ConnectionHost&) = delete;
  ConnectionHost& operator=(const ConnectionHost&) = delete;

  /// Binds the listener and starts the loop thread. UNAVAILABLE when
  /// the port cannot be bound; FAILED_PRECONDITION when running.
  [[nodiscard]] common::Status Start(LineHandler on_line)
      ADA_EXCLUDES(join_mutex_);
  /// Drains (bounded by `failsafe_millis`) and joins the loop thread.
  /// Idempotent; not callable from the loop thread.
  void Stop(double failsafe_millis) ADA_EXCLUDES(join_mutex_);
  /// Blocks until the loop thread exits.
  void Wait() ADA_EXCLUDES(join_mutex_);

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] bool running() const { return running_.load(); }
  [[nodiscard]] ConnectionCounters& counters() { return counters_; }
  [[nodiscard]] EventLoop& loop() { return *loop_; }
  /// For a task on another thread that Posts back: a Post after the
  /// loop exited is dropped, so holding the loop keeps it safe.
  [[nodiscard]] std::shared_ptr<EventLoop> shared_loop() { return loop_; }

  /// Stops accepting, sends every pending reply its abandon answer,
  /// flushes and closes everything, then quits the loop (at the latest
  /// after `failsafe_millis`).
  void BeginDrain(double failsafe_millis);
  [[nodiscard]] bool draining() const { return draining_; }

 private:
  friend class Reply;

  struct Entry {
    std::unique_ptr<Connection> conn;
    /// The last line's reply; owed while the connection is paused.
    std::weak_ptr<Reply::State> reply;
  };

  void OnAcceptable();
  void OnLine(int64_t id, Entry& entry, std::string line);
  /// Sends connection `id` its owed answer (empty: the default abandon
  /// answer) and resumes its intake; a no-op once it is gone.
  void Answer(int64_t id, std::string line);
  void ReapIfClosed(int64_t id);
  /// Posted: Answer may run in the connection's callback.
  void ReapLater(int64_t id, const Connection& conn);
  void ScheduleIdleSweep();

  const char* const name_;
  const ConnectionLimits limits_;
  const std::string abandon_answer_;  // A Reply's default abandon answer.
  LineHandler on_line_;
  ConnectionCounters counters_;
  // connections_ is destroyed before loop_: a Connection unwatches.
  std::shared_ptr<EventLoop> loop_;
  std::map<int64_t, Entry> connections_;
  ServerSocket listener_;
  uint16_t port_ = 0;
  bool draining_ = false;
  int64_t next_connection_id_ = 1;

  common::Mutex join_mutex_;  // Start()'s assignment vs. Stop()/Wait().
  std::thread loop_thread_ ADA_GUARDED_BY(join_mutex_);
  std::atomic<bool> running_{false};
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_CONNECTION_H_
