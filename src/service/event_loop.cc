#include "service/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"

namespace adahealth {
namespace service {

using common::Status;

namespace {

Status ErrnoError(const char* operation) {
  // strerror's static buffer is fine here: the loop is single-threaded
  // and the message is formatted into the Status immediately.
  return common::UnavailableError(common::StrFormat(
      "%s failed: %s", operation,
      std::strerror(errno)));  // NOLINT(concurrency-mt-unsafe)
}

}  // namespace

EventLoop::~EventLoop() {
  // Mark exited so late Post() calls from worker threads are dropped
  // instead of queued into a dead loop.
  common::MutexLock lock(&posted_mutex_);
  loop_exited_ = true;
}

Status EventLoop::Init() {
  epoll_fd_ = FileDescriptor(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) return ErrnoError("epoll_create1");
  wakeup_fd_ = FileDescriptor(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wakeup_fd_.valid()) return ErrnoError("eventfd");
  return Watch(wakeup_fd_.get(), EPOLLIN, [this](uint32_t) {
    uint64_t drained = 0;
    // Reset the counter; posted tasks are collected by DrainPosted().
    while (::read(wakeup_fd_.get(), &drained, sizeof(drained)) > 0) {
    }
  });
}

Status EventLoop::Watch(int fd, uint32_t events, IoCallback callback) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  const bool known = callbacks_.count(fd) > 0;
  int op = known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epoll_fd_.get(), op, fd, &event) != 0) {
    return ErrnoError("epoll_ctl");
  }
  callbacks_[fd] = std::make_shared<IoCallback>(std::move(callback));
  return common::OkStatus();
}

Status EventLoop::SetInterest(int fd, uint32_t events) {
  if (callbacks_.count(fd) == 0) {
    return common::NotFoundError(
        common::StrFormat("fd %d is not watched", fd));
  }
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &event) != 0) {
    return ErrnoError("epoll_ctl(MOD)");
  }
  return common::OkStatus();
}

void EventLoop::Unwatch(int fd) {
  if (callbacks_.erase(fd) == 0) return;
  // Best effort: the kernel also deregisters automatically when the fd
  // is released.
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

EventLoop::TimerId EventLoop::ScheduleAfter(double delay_millis, Task task) {
  if (delay_millis < 0) delay_millis = 0;
  const auto delay =
      std::chrono::microseconds(static_cast<int64_t>(delay_millis * 1000.0));
  const TimerId id(Clock::now() + delay, next_timer_id_++);
  timers_.emplace(id, std::move(task));
  return id;
}

bool EventLoop::CancelTimer(TimerId id) { return timers_.erase(id) > 0; }

void EventLoop::Post(Task task) {
  bool need_wakeup = false;
  {
    common::MutexLock lock(&posted_mutex_);
    if (loop_exited_) return;  // Teardown race: drop silently.
    need_wakeup = posted_.empty();
    posted_.push_back(std::move(task));
  }
  if (need_wakeup && wakeup_fd_.valid()) {
    uint64_t one = 1;
    // A full eventfd counter (impossible in practice) still wakes the
    // loop; ignore the result.
    [[maybe_unused]] ssize_t n =
        ::write(wakeup_fd_.get(), &one, sizeof(one));
  }
}

void EventLoop::DrainPosted() {
  std::vector<Task> tasks;
  {
    common::MutexLock lock(&posted_mutex_);
    tasks.swap(posted_);
  }
  for (Task& task : tasks) task();
}

void EventLoop::FirePendingTimers() {
  const Clock::time_point now = Clock::now();
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    auto fired = timers_.extract(timers_.begin());
    fired.mapped()();
  }
}

int EventLoop::NextTimerTimeout() const {
  if (timers_.empty()) return -1;
  const auto now = Clock::now();
  const auto due = timers_.begin()->first.first;
  if (due <= now) return 0;
  const int64_t millis =
      std::chrono::duration_cast<std::chrono::milliseconds>(due - now)
          .count();
  // Round up so we do not spin on a timer that is <1ms away.
  return static_cast<int>(millis) + 1;
}

void EventLoop::Run() {
  quit_ = false;
  epoll_event events[64];
  while (!quit_) {
    DrainPosted();
    FirePendingTimers();
    if (quit_) break;
    const int timeout = NextTimerTimeout();
    int ready = ::epoll_wait(epoll_fd_.get(), events, 64, timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // Unrecoverable epoll failure; exit rather than spin.
    }
    for (int i = 0; i < ready && !quit_; ++i) {
      auto it = callbacks_.find(events[i].data.fd);
      if (it == callbacks_.end()) continue;  // Unwatched mid-iteration.
      // Keep the callable alive even if it unwatches itself.
      std::shared_ptr<IoCallback> callback = it->second;
      (*callback)(events[i].events);
    }
  }
  DrainPosted();  // Run anything posted before quit was observed.
  common::MutexLock lock(&posted_mutex_);
  loop_exited_ = true;
}

}  // namespace service
}  // namespace adahealth
