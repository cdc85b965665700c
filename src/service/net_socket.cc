#include "service/net_socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace adahealth {
namespace service {

using common::Status;
using common::StatusOr;

namespace {

Status ErrnoError(const char* operation) {
  // strerror's static buffer is consumed immediately into the Status;
  // a concurrent strerror call can garble the text, never the code.
  return common::UnavailableError(common::StrFormat(
      "%s failed: %s", operation,
      std::strerror(errno)));  // NOLINT(concurrency-mt-unsafe)
}

sockaddr_in LoopbackAddress(uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  return address;
}

}  // namespace

FileDescriptor::~FileDescriptor() { Close(); }

FileDescriptor::FileDescriptor(FileDescriptor&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

FileDescriptor& FileDescriptor::operator=(FileDescriptor&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void FileDescriptor::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SetNonBlocking(const FileDescriptor& fd) {
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0) return ErrnoError("fcntl(F_GETFL)");
  if (::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) != 0) {
    return ErrnoError("fcntl(F_SETFL)");
  }
  return common::OkStatus();
}

StatusOr<ServerSocket> ServerSocket::Listen(uint16_t port, int backlog) {
  FileDescriptor fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoError("socket");
  int reuse = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &reuse,
                   sizeof(reuse)) != 0) {
    return ErrnoError("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in address = LoopbackAddress(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    return ErrnoError("bind");
  }
  if (::listen(fd.get(), backlog) != 0) return ErrnoError("listen");
  // Recover the kernel-assigned port when the caller asked for 0.
  sockaddr_in bound{};
  socklen_t bound_size = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_size) != 0) {
    return ErrnoError("getsockname");
  }
  ServerSocket server;
  server.fd_ = std::move(fd);
  server.port_ = ntohs(bound.sin_port);
  return server;
}

StatusOr<FileDescriptor> ServerSocket::Accept() const {
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.net.accept"));
  for (;;) {
    int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd >= 0) return FileDescriptor(fd);
    if (errno == EINTR) continue;
    return ErrnoError("accept");
  }
}

StatusOr<FileDescriptor> ServerSocket::TryAccept() const {
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.net.accept"));
  for (;;) {
    int fd = ::accept4(fd_.get(), nullptr, nullptr, SOCK_NONBLOCK);
    if (fd >= 0) return FileDescriptor(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return FileDescriptor();  // Nothing pending.
    }
    // Transient per-connection failures (the peer aborted between the
    // epoll wakeup and our accept) are "nothing usable pending", not a
    // listener error.
    if (errno == ECONNABORTED) return FileDescriptor();
    return ErrnoError("accept");
  }
}

void ServerSocket::Shutdown() const {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

Status FinishConnect(const FileDescriptor& fd, int timeout_millis) {
  pollfd entry{};
  entry.fd = fd.get();
  entry.events = POLLOUT;
  for (;;) {
    int ready = ::poll(&entry, 1, timeout_millis);
    if (ready < 0) {
      if (errno == EINTR) continue;  // Keep waiting; connect continues.
      return ErrnoError("poll");
    }
    if (ready == 0) {
      return common::DeadlineExceededError("connect timed out");
    }
    break;
  }
  int so_error = 0;
  socklen_t size = sizeof(so_error);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &so_error, &size) != 0) {
    return ErrnoError("getsockopt(SO_ERROR)");
  }
  if (so_error != 0) {
    // Same static-buffer caveat as ErrnoError above.
    return common::UnavailableError(common::StrFormat(
        "connect failed: %s",
        std::strerror(so_error)));  // NOLINT(concurrency-mt-unsafe)
  }
  return common::OkStatus();
}

StatusOr<FileDescriptor> ConnectLoopback(uint16_t port, bool non_blocking) {
  FileDescriptor fd(
      ::socket(AF_INET, SOCK_STREAM | (non_blocking ? SOCK_NONBLOCK : 0), 0));
  if (!fd.valid()) return ErrnoError("socket");
  sockaddr_in address = LoopbackAddress(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) == 0) {
    return fd;
  }
  // A connect() interrupted by a signal keeps completing in the
  // background: retrying it raw yields EALREADY while in flight and
  // EISCONN once done, neither of which is a failure. Finish the
  // handshake by waiting for writability and reading SO_ERROR.
  if (errno == EINTR || errno == EALREADY || errno == EINPROGRESS) {
    if (!non_blocking) ADA_RETURN_IF_ERROR(FinishConnect(fd));
    return fd;
  }
  if (errno == EISCONN) return fd;  // Already established.
  return ErrnoError("connect");
}

Status SetRecvTimeout(const FileDescriptor& fd, double timeout_millis) {
  timeval timeout{};
  if (timeout_millis > 0) {
    timeout.tv_sec = static_cast<time_t>(timeout_millis / 1000.0);
    timeout.tv_usec = static_cast<suseconds_t>(
        (timeout_millis - 1e3 * static_cast<double>(timeout.tv_sec)) * 1e3);
    // A sub-microsecond request still arms a minimal timeout instead
    // of the {0,0} "block forever" sentinel.
    if (timeout.tv_sec == 0 && timeout.tv_usec == 0) timeout.tv_usec = 1;
  }
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof(timeout)) != 0) {
    return ErrnoError("setsockopt(SO_RCVTIMEO)");
  }
  return common::OkStatus();
}

Status SendAll(const FileDescriptor& fd, std::string_view data) {
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.net.write"));
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a
    // process-killing SIGPIPE.
    ssize_t n = ::send(fd.get(), data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("send");
    }
    sent += static_cast<size_t>(n);
  }
  return common::OkStatus();
}

StatusOr<size_t> SendNonBlocking(const FileDescriptor& fd,
                                 std::string_view data) {
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.net.write"));
  for (;;) {
    ssize_t n = ::send(fd.get(), data.data(), data.size(), MSG_NOSIGNAL);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return size_t{0};  // Socket buffer full; resume on writability.
    }
    return ErrnoError("send");
  }
}

StatusOr<RecvResult> RecvNonBlocking(const FileDescriptor& fd, char* buffer,
                                     size_t capacity) {
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.net.read"));
  RecvResult result;
  for (;;) {
    ssize_t n = ::recv(fd.get(), buffer, capacity, 0);
    if (n > 0) {
      result.bytes = static_cast<size_t>(n);
      return result;
    }
    if (n == 0) {
      result.eof = true;
      return result;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.would_block = true;
      return result;
    }
    return ErrnoError("recv");
  }
}

StatusOr<std::string> LineReader::ReadLine() {
  for (;;) {
    // Only bytes that arrived since the last scan are searched, so a
    // line that takes many recvs costs one pass, not one per recv.
    const size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(start_, newline - start_);
      start_ = newline + 1;
      scanned_ = start_;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    // Drop the lines already returned before buffering more.
    buffer_.erase(0, start_);
    start_ = 0;
    scanned_ = buffer_.size();
    if (eof_) {
      if (!buffer_.empty()) {  // Final line without a terminator.
        std::string line = std::move(buffer_);
        buffer_.clear();
        scanned_ = 0;
        return line;
      }
      return common::OutOfRangeError("end of stream");
    }
    // A peer streaming bytes with no newline must not grow the buffer
    // without bound.
    if (buffer_.size() >= max_line_bytes_) {
      return common::ResourceExhaustedError(common::StrFormat(
          "line exceeds %zu bytes without a newline", max_line_bytes_));
    }
    ADA_RETURN_IF_ERROR(ADA_FAILPOINT("service.net.read"));
    char chunk[kReadChunkBytes];
    ssize_t n = ::recv(fd_->get(), chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("recv");
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace service
}  // namespace adahealth
