// Single-threaded epoll event loop for the analysis service.
//
// One thread calls Run() and becomes the *loop thread*; everything the
// loop dispatches — fd readiness callbacks, timers, posted tasks — runs
// on that thread, so loop-owned state (a ConnectionHost's table, the
// router's routes) needs no locking. Other threads interact with the
// loop exclusively through Post(), which enqueues a task and wakes the
// loop via an eventfd (scheduler workers post job completions).
//
// The loop is level-triggered: callbacks drain their fd until EAGAIN
// but missing a byte only delays it to the next wakeup, never loses it.
#ifndef ADAHEALTH_SERVICE_EVENT_LOOP_H_
#define ADAHEALTH_SERVICE_EVENT_LOOP_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "service/net_socket.h"

namespace adahealth {
namespace service {

class EventLoop {
 public:
  /// Called with the epoll event mask (EPOLLIN/EPOLLOUT/EPOLLHUP/...)
  /// when the watched fd becomes ready.
  using IoCallback = std::function<void(uint32_t events)>;
  using Task = std::function<void()>;
  /// (due time, sequence number): ordered by due time, unique.
  using TimerId = std::pair<std::chrono::steady_clock::time_point, int64_t>;

  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and the wakeup eventfd. Must be called
  /// (and succeed) before any other method.
  [[nodiscard]] common::Status Init();

  /// Registers (or re-registers) `fd` for `events`; `callback` fires on
  /// readiness. Loop thread only once Run() has started.
  [[nodiscard]] common::Status Watch(int fd, uint32_t events,
                                     IoCallback callback);

  /// Changes the event mask of an already-watched fd.
  [[nodiscard]] common::Status SetInterest(int fd, uint32_t events);

  /// Stops watching `fd`. Safe to call from inside the fd's own
  /// callback; any events already harvested for it this iteration are
  /// dropped. The fd must still be open when this is called.
  void Unwatch(int fd);

  /// Runs `task` after `delay_millis` on the loop thread. Loop thread
  /// only. Timers are one-shot.
  TimerId ScheduleAfter(double delay_millis, Task task);

  /// Cancels a pending timer. Returns false when the timer already
  /// fired or never existed. Loop thread only.
  bool CancelTimer(TimerId id);

  /// Enqueues `task` to run on the loop thread. Thread-safe; the only
  /// entry point for other threads. Tasks posted after the loop has
  /// exited are silently dropped — the server relies on this when
  /// scheduler workers finish jobs during teardown.
  void Post(Task task) ADA_EXCLUDES(posted_mutex_);

  /// Dispatches events until Quit(). Blocks; call from the designated
  /// loop thread.
  void Run();

  /// Makes Run() return once the current iteration finishes. Loop
  /// thread only; from another thread use `Post([&]{ loop.Quit(); })`.
  void Quit() { quit_ = true; }

 private:
  void DrainPosted() ADA_EXCLUDES(posted_mutex_);
  void FirePendingTimers();
  /// Milliseconds until the earliest timer (-1 = no timers, wait
  /// indefinitely), clamped to >= 0.
  int NextTimerTimeout() const;

  using Clock = std::chrono::steady_clock;

  FileDescriptor epoll_fd_;
  FileDescriptor wakeup_fd_;

  // fd -> callback; shared_ptr lets a callback Unwatch itself while the
  // dispatch loop still holds a reference to the running callable.
  std::map<int, std::shared_ptr<IoCallback>> callbacks_;

  std::map<TimerId, Task> timers_;
  int64_t next_timer_id_ = 1;

  common::Mutex posted_mutex_;
  std::vector<Task> posted_ ADA_GUARDED_BY(posted_mutex_);
  /// Once set, Post() drops tasks instead of queueing into a dead loop.
  bool loop_exited_ ADA_GUARDED_BY(posted_mutex_) = false;

  bool quit_ = false;
};

}  // namespace service
}  // namespace adahealth

#endif  // ADAHEALTH_SERVICE_EVENT_LOOP_H_
