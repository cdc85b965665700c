#include "service/connection.h"

#include <sys/epoll.h>

#include <utility>

#include "common/string_util.h"
#include "service/protocol.h"

namespace adahealth {
namespace service {

using common::Status;

Connection::Connection(int64_t id, FileDescriptor fd, EventLoop* loop,
                       size_t max_line_bytes, std::atomic<int64_t>* errors)
    : id_(id),
      fd_(std::move(fd)),
      loop_(loop),
      max_line_bytes_(max_line_bytes),
      errors_(errors),
      last_activity_(std::chrono::steady_clock::now()) {}

Connection::~Connection() {
  if (!closed_) {
    loop_->Unwatch(fd_.get());
    fd_.Close();
    closed_ = true;
  }
}

Status Connection::Register(std::function<void(uint32_t)> dispatcher,
                            RequestHandler on_request) {
  on_request_ = std::move(on_request);
  interest_ = EPOLLIN;
  return loop_->Watch(fd_.get(), interest_, std::move(dispatcher));
}

void Connection::HandleEvents(uint32_t events) {
  if (closed_) return;
  last_activity_ = std::chrono::steady_clock::now();
  if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) HandleReadable();
  if (closed_) return;
  if (events & EPOLLOUT) FlushOutput();
  if (closed_) return;
  UpdateInterest();
}

void Connection::HandleReadable() {
  char chunk[16384];
  while (!closed_ && !peer_eof_ && !close_after_flush_) {
    auto read = RecvNonBlocking(fd_, chunk, sizeof(chunk));
    if (!read.ok()) {
      errors_->fetch_add(1);
      CloseNow();
      return;
    }
    if (read->would_block) break;
    if (read->eof) {
      peer_eof_ = true;
      break;
    }
    inbuf_.append(chunk, read->bytes);
    // Give the parser a chance before the next recv so an oversized
    // line fails fast instead of buffering the whole flood first.
    if (inbuf_.size() >= max_line_bytes_) break;
  }
  ProcessBuffered();
}

void Connection::ProcessBuffered() {
  while (!closed_ && !awaiting_ && !close_after_flush_) {
    size_t newline = inbuf_.find('\n', scan_pos_);
    if (newline == std::string::npos) {
      scan_pos_ = inbuf_.size();
      if (inbuf_.size() >= max_line_bytes_) FailOversizedLine();
      break;
    }
    std::string line = inbuf_.substr(0, newline);
    inbuf_.erase(0, newline + 1);
    scan_pos_ = 0;
    DispatchLine(std::move(line));
  }
  // End-of-stream parity with the blocking LineReader: a final line
  // without a terminator is still a request.
  if (peer_eof_ && !closed_ && !awaiting_ && !close_after_flush_) {
    if (!inbuf_.empty() && !final_line_dispatched_) {
      final_line_dispatched_ = true;
      std::string line = std::move(inbuf_);
      inbuf_.clear();
      scan_pos_ = 0;
      DispatchLine(std::move(line));
    }
    // The dispatched final line may have parked the connection; only
    // finish once every response has been delivered.
    if (!closed_ && !awaiting_) StartDrain();
  }
}

void Connection::DispatchLine(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) return;  // Blank keep-alive lines are ignored.
  on_request_(*this, std::move(line));
}

void Connection::FailOversizedLine() {
  errors_->fetch_add(1);
  inbuf_.clear();
  scan_pos_ = 0;
  // Set before enqueueing: the response usually flushes in full right
  // inside EnqueueResponse, and FlushOutput closes on drain only if
  // the flag is already up.
  close_after_flush_ = true;
  EnqueueResponse(ErrorResponse(common::ResourceExhaustedError(
      common::StrFormat("request line exceeds %zu bytes without a newline",
                        max_line_bytes_))));
  if (!closed_) UpdateInterest();
}

void Connection::EnqueueResponse(std::string data) {
  if (closed_) return;
  outbuf_ += data;
  FlushOutput();
  if (!closed_) UpdateInterest();
}

void Connection::PauseRequests() {
  awaiting_ = true;
  if (!closed_) UpdateInterest();
}

void Connection::ResumeRequests() {
  if (closed_) return;
  awaiting_ = false;
  ProcessBuffered();
  if (!closed_) UpdateInterest();
}

void Connection::StartDrain() {
  if (closed_) return;
  close_after_flush_ = true;
  if (outbuf_.empty()) {
    CloseNow();
    return;
  }
  UpdateInterest();
}

void Connection::CloseNow() {
  if (closed_) return;
  closed_ = true;
  loop_->Unwatch(fd_.get());
  fd_.Close();
  outbuf_.clear();
  inbuf_.clear();
}

void Connection::FlushOutput() {
  while (!closed_ && !outbuf_.empty()) {
    auto sent = SendNonBlocking(fd_, outbuf_);
    if (!sent.ok()) {
      errors_->fetch_add(1);
      CloseNow();
      return;
    }
    if (sent.value() == 0) return;  // Socket full; resume on EPOLLOUT.
    outbuf_.erase(0, sent.value());
    last_activity_ = std::chrono::steady_clock::now();
  }
  if (outbuf_.empty() && close_after_flush_) CloseNow();
}

void Connection::UpdateInterest() {
  uint32_t wanted = 0;
  if (!awaiting_ && !peer_eof_ && !close_after_flush_) wanted |= EPOLLIN;
  if (!outbuf_.empty()) wanted |= EPOLLOUT;
  if (wanted == interest_) return;
  interest_ = wanted;
  // A failed interest update leaves the old mask: worst case we wake
  // spuriously (level-triggered), never lose readiness.
  (void)loop_->SetInterest(fd_.get(), wanted);
}

}  // namespace service
}  // namespace adahealth
