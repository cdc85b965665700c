// Fixed-size worker pool with a ParallelFor convenience wrapper.
//
// The ADA-HEALTH optimizer evaluates many candidate configurations
// (e.g. K values) concurrently; this pool is the local stand-in for the
// paper's "online cloud-based services for automatic configuration".
#ifndef ADAHEALTH_COMMON_THREAD_POOL_H_
#define ADAHEALTH_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace adahealth {
namespace common {

/// A fixed pool of worker threads executing queued tasks FIFO.
/// Thread-safe. Destruction drains the queue: every task scheduled
/// before the destructor runs is executed before the workers join.
///
/// Exception safety: the project itself is exception-free (fallible
/// operations return Status), but third-party code run on the pool may
/// still throw. An exception escaping a task is caught by the worker,
/// counted in failed_tasks(), and its first message retained
/// (first_failure_message()); the worker thread survives and Wait()
/// does not deadlock.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  /// Process-wide pool shared by every parallel subsystem (optimizer
  /// candidate sweeps, k-means row-level parallelism, ...). Sized to
  /// the hardware concurrency and constructed on first use; callers
  /// must never Shutdown() it. Sharing one pool keeps the process at
  /// one worker per core instead of one pool per sweep.
  static ThreadPool& Shared();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution. Scheduling after shutdown has begun
  /// is a programmer error (ADA_CHECK); use TrySchedule when the pool's
  /// lifetime is not under the caller's control.
  // ada-lint: allow(unreached-symbol) ThreadPoolTest and
  // concurrency_stress_test submit fire-and-forget tasks with it.
  void Schedule(std::function<void()> task) ADA_EXCLUDES(mutex_);

  /// Like Schedule, but returns false (dropping `task`) instead of
  /// aborting when the pool is already shutting down. Safe to call
  /// concurrently with Shutdown.
  [[nodiscard]] bool TrySchedule(std::function<void()> task)
      ADA_EXCLUDES(mutex_);

  /// Begins shutdown, drains the queue, and joins the workers: every
  /// task accepted before shutdown began is executed before this
  /// returns. Idempotent from the owning thread (the destructor calls
  /// it); concurrent TrySchedule calls observe the shutdown and return
  /// false instead of enqueuing.
  void Shutdown() ADA_EXCLUDES(mutex_);

  /// Blocks until every scheduled task has completed.
  void Wait() ADA_EXCLUDES(mutex_);

  /// threads_ is immutable after construction, so this needs no lock.
  size_t num_threads() const { return threads_.size(); }

  /// Number of tasks so far whose execution ended in an exception.
  // ada-lint: allow(unreached-symbol) ThreadPoolTest and
  // fault_injection_test observe the exception trap with it.
  [[nodiscard]] size_t failed_tasks() const ADA_EXCLUDES(mutex_);

  /// what() of the first failed task ("" while failed_tasks() == 0;
  /// "unknown exception" for non-std::exception throws).
  // ada-lint: allow(unreached-symbol) ThreadPoolTest and
  // fault_injection_test observe the exception trap with it.
  [[nodiscard]] std::string first_failure_message() const
      ADA_EXCLUDES(mutex_);

 private:
  void WorkerLoop() ADA_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  CondVar task_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ ADA_GUARDED_BY(mutex_);
  size_t active_ ADA_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ ADA_GUARDED_BY(mutex_) = false;
  size_t failed_tasks_ ADA_GUARDED_BY(mutex_) = 0;
  std::string first_failure_message_ ADA_GUARDED_BY(mutex_);
  /// Started in the constructor, joined by Shutdown; the vector itself
  /// is never resized after construction.
  std::vector<std::thread> threads_;
};

/// Runs body(i) for i in [begin, end) across `pool`, blocking until all
/// iterations complete. Iterations are distributed in contiguous chunks
/// claimed from a shared counter; the calling thread participates in
/// chunk execution, so ParallelFor is safe to nest — a body running on
/// a pool worker may itself call ParallelFor on the same pool without
/// deadlock (in the worst case the inner call runs entirely on the
/// calling worker). `max_chunk` caps the chunk size (0 = automatic).
/// A body exception is rethrown to the caller after every iteration
/// has settled, no matter which thread ran the throwing chunk.
void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body,
                 size_t max_chunk = 0);

/// Like ParallelFor but hands each task a contiguous [chunk_begin,
/// chunk_end) range instead of a single index, avoiding per-index
/// std::function overhead in tight loops. Same nesting guarantees.
/// Returns the number of chunks executed.
size_t ParallelForChunks(
    ThreadPool& pool, size_t begin, size_t end,
    const std::function<void(size_t, size_t)>& chunk_body,
    size_t max_chunk = 0);

}  // namespace common
}  // namespace adahealth

#endif  // ADAHEALTH_COMMON_THREAD_POOL_H_
