// RAII POSIX socket wrappers for the NDJSON protocol server.
//
// This is the only layer of the tree allowed to call the raw fd
// syscalls (socket/accept/close — enforced by the ada_lint `raw-socket`
// rule): everything above holds fds through the move-only
// FileDescriptor owner, so no error path can leak or double-close one.
//
// Two I/O idioms coexist:
//  * blocking helpers (Accept, SendAll, LineReader) used by the client
//    bindings and the tests;
//  * non-blocking helpers (TryAccept, RecvNonBlocking, SendNonBlocking,
//    SetNonBlocking) used on the epoll event loop, which must never
//    park its thread.
//
// The server binds the IPv4 loopback only: the analysis service is an
// in-host component (an analyst tool or a sidecar), not an
// internet-facing endpoint.
//
// Failpoints: "service.net.accept", "service.net.read",
// "service.net.write" — injected at every socket I/O boundary, on both
// the blocking and the non-blocking paths.
#ifndef ADAHEALTH_SERVICE_NET_SOCKET_H_
#define ADAHEALTH_SERVICE_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace adahealth {
namespace service {

/// Ceiling on one NDJSON line (request or response). Readers that
/// accumulate this much without seeing a newline fail with
/// RESOURCE_EXHAUSTED instead of growing without bound — a client
/// streaming newline-less bytes must not OOM the server.
inline constexpr size_t kMaxLineBytes = 4u << 20;  // 4 MiB

/// Move-only owner of one POSIX file descriptor; closes on
/// destruction.
class FileDescriptor {
 public:
  FileDescriptor() = default;
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor();

  FileDescriptor(FileDescriptor&& other) noexcept;
  FileDescriptor& operator=(FileDescriptor&& other) noexcept;
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int get() const { return fd_; }

  /// Closes now (idempotent).
  void Close();

 private:
  int fd_ = -1;
};

/// Switches the descriptor to non-blocking mode (O_NONBLOCK).
[[nodiscard]] common::Status SetNonBlocking(const FileDescriptor& fd);

/// A listening TCP socket bound to 127.0.0.1.
class ServerSocket {
 public:
  ServerSocket() = default;

  /// Binds and listens on loopback `port` (0 = kernel-assigned
  /// ephemeral port, reported by port()). UNAVAILABLE on any syscall
  /// failure (e.g. the port is taken).
  [[nodiscard]] static common::StatusOr<ServerSocket> Listen(
      uint16_t port, int backlog = 128);

  /// Blocks for one connection. UNAVAILABLE once the socket has been
  /// shut down (an exit signal for blocking accept loops) or on accept
  /// failure.
  [[nodiscard]] common::StatusOr<FileDescriptor> Accept() const;

  /// Non-blocking accept for the event loop: an *invalid*
  /// FileDescriptor means no connection was pending (EAGAIN); a valid
  /// one is already in non-blocking mode. Errors are UNAVAILABLE.
  [[nodiscard]] common::StatusOr<FileDescriptor> TryAccept() const;

  /// Unblocks any in-flight Accept() from another thread without
  /// releasing the fd (close happens at destruction, so the fd number
  /// cannot be reused while a racing accept still references it).
  void Shutdown() const;

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] const FileDescriptor& descriptor() const { return fd_; }

 private:
  FileDescriptor fd_;
  uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:`port`. UNAVAILABLE when nothing listens.
///
/// A connect() interrupted by a signal keeps completing asynchronously
/// on Linux — a naive retry then fails with EALREADY (or EISCONN once
/// done) and would misreport an established connection as an error.
/// This helper treats EISCONN as success and finishes interrupted
/// connects via FinishConnect (writability + SO_ERROR). With
/// `non_blocking` (an event loop's socket) it returns at once: the
/// connect completes later, or fails later as a socket error.
[[nodiscard]] common::StatusOr<FileDescriptor> ConnectLoopback(
    uint16_t port, bool non_blocking = false);

/// Completes an asynchronously-proceeding connect(): waits (poll) until
/// the socket is writable, then reads SO_ERROR for the real verdict.
/// OK when the connection is established; UNAVAILABLE when the connect
/// failed; DEADLINE_EXCEEDED when `timeout_millis` >= 0 elapses first.
[[nodiscard]] common::Status FinishConnect(const FileDescriptor& fd,
                                           int timeout_millis = -1);

/// Arms SO_RCVTIMEO: a blocking read on `fd` fails with UNAVAILABLE
/// (EAGAIN) after `timeout_millis` instead of parking the thread
/// forever — AnalysisClient's receive deadline against a wedged (but
/// not dead) peer. <= 0 restores block-forever.
[[nodiscard]] common::Status SetRecvTimeout(const FileDescriptor& fd,
                                            double timeout_millis);

/// Writes all of `data`, resuming partial writes (blocking sockets).
/// UNAVAILABLE on a closed peer or I/O error.
[[nodiscard]] common::Status SendAll(const FileDescriptor& fd,
                                     std::string_view data);

/// One non-blocking send attempt: returns the number of bytes written,
/// 0 when the socket buffer is full (EAGAIN — retry on writability).
/// UNAVAILABLE on a closed peer or I/O error.
[[nodiscard]] common::StatusOr<size_t> SendNonBlocking(
    const FileDescriptor& fd, std::string_view data);

/// Outcome of one non-blocking read attempt.
struct RecvResult {
  size_t bytes = 0;        // Bytes placed into the buffer.
  bool would_block = false;  // EAGAIN: nothing to read right now.
  bool eof = false;          // Clean end-of-stream.
};

/// One non-blocking recv attempt into `buffer` (capacity bytes).
/// UNAVAILABLE on I/O errors.
[[nodiscard]] common::StatusOr<RecvResult> RecvNonBlocking(
    const FileDescriptor& fd, char* buffer, size_t capacity);

/// Buffered newline-delimited reader over one connection (blocking).
class LineReader {
 public:
  explicit LineReader(const FileDescriptor& fd,
                      size_t max_line_bytes = kMaxLineBytes)
      : fd_(&fd), max_line_bytes_(max_line_bytes) {}

  /// Returns the next line without its trailing '\n'. OUT_OF_RANGE on
  /// clean end-of-stream, RESOURCE_EXHAUSTED when the peer streams
  /// more than max_line_bytes without a newline, UNAVAILABLE on I/O
  /// errors.
  [[nodiscard]] common::StatusOr<std::string> ReadLine();

 private:
  /// Bytes asked of each recv.
  static constexpr size_t kReadChunkBytes = 64 * 1024;

  const FileDescriptor* fd_;
  /// Received bytes; [start_, size) is not yet returned, and
  /// [start_, scanned_) is known to hold no newline.
  std::string buffer_;
  size_t start_ = 0;
  size_t scanned_ = 0;
  size_t max_line_bytes_;
  bool eof_ = false;
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_NET_SOCKET_H_
