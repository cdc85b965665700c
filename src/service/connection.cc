#include "service/connection.h"

#include <sys/epoll.h>

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "service/protocol.h"

namespace adahealth {
namespace service {

using common::Status;

Connection::Connection(FileDescriptor fd, EventLoop* loop,
                       size_t max_line_bytes, std::atomic<int64_t>* errors)
    : fd_(std::move(fd)),
      loop_(loop),
      max_line_bytes_(max_line_bytes),
      errors_(errors),
      last_activity_(std::chrono::steady_clock::now()) {}

Connection::~Connection() { CloseNow(); }

Status Connection::Register(std::function<void(uint32_t)> dispatcher,
                            LineHandler on_line) {
  on_line_ = std::move(on_line);
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
  // One chunk per readiness event: level-triggered epoll reports the
  // rest again after the loop has served every other ready connection,
  // so one client's pipelined batch cannot hold up the others.
  char chunk[64 * 1024];
  if (!closed_ && !peer_eof_ && !close_after_flush_) {
    auto read = RecvNonBlocking(fd_, chunk, sizeof(chunk));
    if (!read.ok()) {
      errors_->fetch_add(1);
      CloseNow();
      return;
    }
    if (read->eof) {
      peer_eof_ = true;
    } else if (!read->would_block) {
      inbuf_.append(chunk, read->bytes);
    }
  }
  ProcessBuffered();
}

void Connection::ProcessBuffered() {
  // Not reentrant: a line answered and resumed inside its own dispatch
  // (ResumeRequests from the handler) continues this loop instead of
  // recursing once per pipelined line.
  if (dispatching_) return;
  dispatching_ = true;
  while (!closed_ && !paused_ && !close_after_flush_) {
    size_t newline = inbuf_.find('\n', scan_pos_);
    if (newline == std::string::npos) {
      scan_pos_ = inbuf_.size();
      if (inbuf_.size() >= max_line_bytes_) FailOversizedLine();
      break;
    }
    // A buffer that holds one whole line (an upload) is moved, not copied.
    std::string line = newline + 1 == inbuf_.size()
                           ? std::exchange(inbuf_, std::string())
                           : inbuf_.substr(0, newline + 1);
    if (!inbuf_.empty()) inbuf_.erase(0, newline + 1);
    line.pop_back();  // The '\n'.
    scan_pos_ = 0;
    DispatchLine(std::move(line));
  }
  // End-of-stream parity with the blocking LineReader: a final line
  // without a terminator is still a request.
  if (peer_eof_ && !closed_ && !paused_ && !close_after_flush_) {
    if (!inbuf_.empty() && !final_line_dispatched_) {
      final_line_dispatched_ = true;
      std::string line = std::move(inbuf_);
      inbuf_.clear();
      scan_pos_ = 0;
      DispatchLine(std::move(line));
    }
    // The dispatched final line may have paused the connection; only
    // finish once every response has been delivered.
    if (!closed_ && !paused_) StartDrain();
  }
  dispatching_ = false;
}

void Connection::DispatchLine(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) return;  // Blank keep-alive lines are ignored.
  on_line_(std::move(line));
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
  if (outbuf_.empty()) {
    outbuf_ = std::move(data);
  } else {
    outbuf_ += data;
  }
  FlushOutput();
  if (!closed_) UpdateInterest();
}

void Connection::PauseRequests() {
  paused_ = true;
  if (!closed_) UpdateInterest();
}

void Connection::ResumeRequests() {
  if (closed_ || !paused_) return;
  paused_ = false;
  ProcessBuffered();  // A no-op inside a dispatch, whose loop goes on.
  if (close_after_flush_ && outbuf_.empty()) CloseNow();  // Drained.
  if (!closed_) UpdateInterest();
}

void Connection::StartDrain() {
  if (closed_) return;
  close_after_flush_ = true;
  if (outbuf_.empty() && !paused_) {
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
  out_sent_ = 0;
  inbuf_.clear();
}

void Connection::FlushOutput() {
  while (!closed_ && out_sent_ < outbuf_.size()) {
    auto sent =
        SendNonBlocking(fd_, std::string_view(outbuf_).substr(out_sent_));
    if (!sent.ok()) {
      errors_->fetch_add(1);
      CloseNow();
      return;
    }
    if (sent.value() == 0) {  // Socket full; resume on EPOLLOUT.
      // Drop the sent prefix once it is half the buffer, so appends
      // stay in place and each byte is moved O(1) times.
      if (out_sent_ > outbuf_.size() / 2) {
        outbuf_.erase(0, out_sent_);
        out_sent_ = 0;
      }
      return;
    }
    out_sent_ += sent.value();
    last_activity_ = std::chrono::steady_clock::now();
  }
  outbuf_.clear();
  out_sent_ = 0;
  if (close_after_flush_ && !paused_) CloseNow();
}

void Connection::UpdateInterest() {
  uint32_t wanted = 0;
  if (!paused_ && !peer_eof_ && !close_after_flush_) wanted |= EPOLLIN;
  if (!outbuf_.empty()) wanted |= EPOLLOUT;
  if (wanted == interest_) return;
  interest_ = wanted;
  // A failed interest update leaves the old mask: worst case we wake
  // spuriously (level-triggered), never lose readiness.
  (void)loop_->SetInterest(fd_.get(), wanted);
}

struct Reply::State {
  State(ConnectionHost* host, int64_t connection,
        std::weak_ptr<EventLoop> loop)
      : host(host), connection(connection), loop(std::move(loop)) {}
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  /// Unanswered: posts the abandon answer. A post after the loop exited
  /// is dropped, and so is every connection with it.
  ~State() {
    if (answered) return;
    if (auto live = loop.lock()) {
      live->Post([host = host, id = connection,
                  line = std::move(abandon)]() mutable {
        host->Answer(id, std::move(line));
      });
    }
  }

  ConnectionHost* const host;
  const int64_t connection;
  const std::weak_ptr<EventLoop> loop;
  bool answered = false;
  std::string abandon;  // Empty: the host's default.
};

void Reply::Send(std::string line) const {
  if (std::exchange(state_->answered, true)) return;
  state_->host->Answer(state_->connection, std::move(line));
}

void Reply::AbandonWith(std::string line) const {
  state_->abandon = std::move(line);
}

ConnectionHost::ConnectionHost(const char* name, ConnectionLimits limits)
    : name_(name),
      limits_{limits.port, std::max<size_t>(1, limits.max_connections),
              limits.idle_timeout_millis,
              std::max<size_t>(1, limits.max_line_bytes)},
      abandon_answer_(ErrorResponse(common::UnavailableError(
          common::StrFormat("%s dropped the request unanswered", name)))),
      loop_(std::make_shared<EventLoop>()) {}

ConnectionHost::~ConnectionHost() { Stop(/*failsafe_millis=*/250.0); }

Status ConnectionHost::Start(LineHandler on_line) {
  if (running_.load()) {
    return common::FailedPreconditionError(
        common::StrFormat("%s already started", name_));
  }
  on_line_ = std::move(on_line);
  ADA_ASSIGN_OR_RETURN(listener_, ServerSocket::Listen(limits_.port));
  ADA_RETURN_IF_ERROR(SetNonBlocking(listener_.descriptor()));
  port_ = listener_.port();
  ADA_RETURN_IF_ERROR(loop_->Init());
  ADA_RETURN_IF_ERROR(loop_->Watch(listener_.fd(), EPOLLIN,
                                   [this](uint32_t) { OnAcceptable(); }));
  ScheduleIdleSweep();
  running_.store(true);
  common::MutexLock lock(&join_mutex_);
  loop_thread_ = std::thread([this] {
    loop_->Run();
    running_.store(false);
  });
  return common::OkStatus();
}

void ConnectionHost::Stop(double failsafe_millis) {
  if (running_.load()) {
    loop_->Post([this, failsafe_millis] { BeginDrain(failsafe_millis); });
  }
  Wait();
}

void ConnectionHost::Wait() {
  common::MutexLock lock(&join_mutex_);
  if (loop_thread_.joinable()) loop_thread_.join();
}

void ConnectionHost::OnAcceptable() {
  for (;;) {
    auto accepted = listener_.TryAccept();
    if (!accepted.ok()) {
      if (draining_) return;
      // A transient failure (injected, EMFILE) must not kill the loop:
      // level-triggered epoll reports the backlog again.
      counters_.errors.fetch_add(1);
      ADA_LOG(kWarning) << name_ << ": accept failed: "
                        << accepted.status().message();
      return;
    }
    if (!accepted.value().valid()) return;  // Backlog drained.
    counters_.total.fetch_add(1);
    if (connections_.size() >= limits_.max_connections) {
      // Shed with a best-effort single write: a fresh socket's buffer
      // is empty, so it virtually always lands.
      counters_.shed.fetch_add(1);
      (void)SendNonBlocking(
          accepted.value(),
          ErrorResponse(common::ResourceExhaustedError(common::StrFormat(
              "%s at its %zu-connection limit", name_,
              limits_.max_connections))));
      continue;
    }
    const int64_t id = next_connection_id_++;
    // The entry owns the connection, whose line callback holds it.
    Entry& entry = connections_[id];
    entry.conn = std::make_unique<Connection>(std::move(accepted).value(),
                                              loop_.get(),
                                              limits_.max_line_bytes,
                                              &counters_.errors);
    Status registered = entry.conn->Register(
        [this, id](uint32_t events) {
          auto it = connections_.find(id);
          if (it == connections_.end()) return;
          it->second.conn->HandleEvents(events);
          ReapIfClosed(id);
        },
        [this, id, &entry](std::string line) {
          OnLine(id, entry, std::move(line));
        });
    if (!registered.ok()) {
      connections_.erase(id);
      counters_.errors.fetch_add(1);
      ADA_LOG(kWarning) << name_ << ": failed to register connection: "
                        << registered.ToString();
      continue;
    }
    counters_.open.store(static_cast<int64_t>(connections_.size()));
  }
}

void ConnectionHost::OnLine(int64_t id, Entry& entry, std::string line) {
  auto state = std::make_shared<Reply::State>(this, id, loop_);
  entry.reply = state;
  on_line_(std::move(line), Reply(state));
  // Unanswered: the lines behind this one wait until it is.
  if (!state->answered) entry.conn->PauseRequests();
}

void ConnectionHost::Answer(int64_t id, std::string line) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second.conn;
  conn.EnqueueResponse(line.empty() ? abandon_answer_ : std::move(line));
  conn.ResumeRequests();  // A no-op for an answer sent inside the dispatch.
  ReapLater(id, conn);
}

void ConnectionHost::ReapLater(int64_t id, const Connection& conn) {
  if (conn.closed()) loop_->Post([this, id] { ReapIfClosed(id); });
}

void ConnectionHost::BeginDrain(double failsafe_millis) {
  if (!draining_) {
    draining_ = true;
    loop_->Unwatch(listener_.fd());
    listener_.Shutdown();  // Pending un-accepted clients see EOF.
    for (auto& [id, entry] : connections_) {
      // Closes once its owed answer, if any, is flushed. An abandon
      // answer already posted arrives before the failsafe.
      entry.conn->StartDrain();
      if (auto state = entry.reply.lock()) Reply(state).Send(state->abandon);
    }
    // Reap on a posted task: BeginDrain may run inside a connection's
    // own callback.
    loop_->Post([this] {
      std::erase_if(connections_, [](const auto& item) {
        return item.second.conn->closed();
      });
      counters_.open.store(static_cast<int64_t>(connections_.size()));
      if (connections_.empty()) loop_->Quit();
    });
  }
  loop_->ScheduleAfter(failsafe_millis, [this] {
    connections_.clear();
    counters_.open.store(0);
    loop_->Quit();
  });
}

void ConnectionHost::ReapIfClosed(int64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end() || !it->second.conn->closed()) return;
  connections_.erase(it);
  counters_.open.store(static_cast<int64_t>(connections_.size()));
  if (draining_ && connections_.empty()) loop_->Quit();
}

void ConnectionHost::ScheduleIdleSweep() {
  if (limits_.idle_timeout_millis <= 0) return;
  // A quarter of the timeout bounds eviction lag to ~1.25x of it.
  const double period = std::max(limits_.idle_timeout_millis / 4.0, 10.0);
  loop_->ScheduleAfter(period, [this] {
    if (draining_) return;
    const auto budget = std::chrono::duration<double, std::milli>(
        limits_.idle_timeout_millis);
    const auto now = std::chrono::steady_clock::now();
    // A connection owed a reply waits on its owner, whose wait has its
    // own bound; evicting it would drop the answer.
    const size_t evicted = std::erase_if(connections_, [&](const auto& item) {
      return !item.second.conn->paused() &&
             now - item.second.conn->last_activity() > budget;
    });
    counters_.idle_disconnects.fetch_add(static_cast<int64_t>(evicted));
    counters_.open.store(static_cast<int64_t>(connections_.size()));
    ScheduleIdleSweep();
  });
}

}  // namespace service
}  // namespace adahealth
