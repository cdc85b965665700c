// Capability-annotated synchronization primitives.
//
// Every mutex in the project is a common::Mutex and every critical
// section a common::MutexLock so that Clang's thread-safety analysis
// (-Wthread-safety, wired up as a hard gate by the ADA_THREAD_SAFETY
// CMake option) can prove lock discipline at compile time: protected
// members carry ADA_GUARDED_BY, internal helpers carry ADA_REQUIRES /
// ADA_EXCLUDES contracts, and a violated invariant is a build error on
// *every* interleaving rather than a TSan report on the interleavings
// a test happened to produce. Under compilers without the attributes
// the macros expand to nothing and the wrappers cost one bool over a
// raw std::lock_guard.
//
// Conventions:
//  * members protected by a mutex are declared `ADA_GUARDED_BY(mu_)`;
//  * a private helper that must be called with the lock held is
//    suffixed `Locked` and annotated `ADA_REQUIRES(mu_)`;
//  * a function that takes the lock itself (every public entry point
//    of a thread-safe class) is annotated `ADA_EXCLUDES(mu_)` so a
//    re-entrant call from a held-lock context cannot compile;
//  * `ADA_NO_THREAD_SAFETY_ANALYSIS` is a last resort for protocols
//    the analysis cannot express (see DESIGN.md §7); each use needs a
//    comment saying why the code is nevertheless correct.
//
// Direct std::mutex / std::lock_guard / std::unique_lock /
// std::condition_variable use outside this header and sync.cc is
// banned by the ada_lint `raw-mutex` rule: raw primitives are
// invisible to the analysis, so one raw lock would punch a silent
// hole in the compile-time guarantee.
#ifndef ADAHEALTH_COMMON_SYNC_H_
#define ADAHEALTH_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

// Thread-safety attribute spellings. Clang implements the analysis;
// everywhere else the annotations vanish.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ADA_TSA_(x) __attribute__((x))
#endif
#endif
#ifndef ADA_TSA_
#define ADA_TSA_(x)
#endif

/// Marks a class as a lockable capability (the thing GUARDED_BY and
/// REQUIRES refer to). `x` names the capability kind in diagnostics.
#define ADA_CAPABILITY(x) ADA_TSA_(capability(x))
/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability (MutexLock below).
#define ADA_SCOPED_CAPABILITY ADA_TSA_(scoped_lockable)
/// Declares that a member is protected by capability `x`: every read
/// requires `x` held (shared) and every write requires it exclusive.
#define ADA_GUARDED_BY(x) ADA_TSA_(guarded_by(x))
/// As ADA_GUARDED_BY but for the data a pointer member points at.
#define ADA_PT_GUARDED_BY(x) ADA_TSA_(pt_guarded_by(x))
/// Function contract: the caller must hold the listed capabilities.
#define ADA_REQUIRES(...) ADA_TSA_(requires_capability(__VA_ARGS__))
/// Function contract: the function acquires the listed capabilities
/// (its own object when the list is empty) and does not release them.
#define ADA_ACQUIRE(...) ADA_TSA_(acquire_capability(__VA_ARGS__))
/// Function contract: releases capabilities the caller holds.
#define ADA_RELEASE(...) ADA_TSA_(release_capability(__VA_ARGS__))
/// Function contract: acquires the capability iff the return value
/// equals the first argument.
#define ADA_TRY_ACQUIRE(...) ADA_TSA_(try_acquire_capability(__VA_ARGS__))
/// Function contract: the caller must NOT hold the listed capabilities
/// (the function acquires them itself; holding one would deadlock).
#define ADA_EXCLUDES(...) ADA_TSA_(locks_excluded(__VA_ARGS__))
/// Runtime claim that the capability is held (trusted by the
/// analysis); for code reached only from held-lock contexts it cannot
/// see through, e.g. type-erased callbacks.
#define ADA_ASSERT_CAPABILITY(x) ADA_TSA_(assert_capability(x))
/// Documents that a getter returns a reference to the capability `x`.
#define ADA_RETURN_CAPABILITY(x) ADA_TSA_(lock_returned(x))
/// Opts one function out of the analysis entirely. Last resort; see
/// file comment.
#define ADA_NO_THREAD_SAFETY_ANALYSIS ADA_TSA_(no_thread_safety_analysis)

namespace adahealth {
namespace common {

class CondVar;

/// A std::mutex the thread-safety analysis can see. Non-recursive;
/// prefer MutexLock over manual Lock/Unlock pairs.
class ADA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ADA_ACQUIRE() { mu_.lock(); }
  void Unlock() ADA_RELEASE() { mu_.unlock(); }
  // ada-lint: allow(unreached-symbol) sync_test's MutexTest probes
  // the lock state with it.
  [[nodiscard]] bool TryLock() ADA_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  friend class CondVar;  // CondVar::Wait atomically releases mu_.
  std::mutex mu_;
};

/// RAII critical section: acquires on construction, releases on
/// destruction. Unlock()/Lock() support the drop-the-lock-around-a-
/// callback pattern (scheduler workers, ParallelFor inline fallback)
/// without giving up scoped release on every exit path.
class ADA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ADA_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() ADA_RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily releases the mutex; the caller must re-Lock() (or let
  /// the destructor observe the released state) before touching
  /// guarded members again — the analysis enforces exactly that.
  void Unlock() ADA_RELEASE() {
    held_ = false;
    mu_->Unlock();
  }
  void Lock() ADA_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* const mu_;
  bool held_ = true;
};

/// Condition variable bound to common::Mutex. Waits state their lock
/// requirement through ADA_REQUIRES, so forgetting to hold the mutex
/// across a Wait is a compile error, not a lost wakeup.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks until notified; `mu` is held
  /// again on return. Spurious wakeups happen — use the predicate
  /// overloads unless an outer loop re-checks.
  void Wait(Mutex& mu) ADA_REQUIRES(mu);

  /// As Wait, but returns false when `deadline` passes first.
  [[nodiscard]] bool WaitUntil(
      Mutex& mu, std::chrono::steady_clock::time_point deadline)
      ADA_REQUIRES(mu);

  /// Blocks until pred() holds (pred is evaluated with `mu` held).
  /// Annotate the predicate lambda itself with ADA_REQUIRES(<mutex>)
  /// when it reads guarded members.
  ///
  /// Body analysis is off (callers are still checked against the
  /// REQUIRES contract): the analysis cannot relate the `mu` parameter
  /// to the specific member mutex an annotated predicate requires, so
  /// the pred() call inside this trampoline is unprovable by design.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) ADA_REQUIRES(mu)
      ADA_NO_THREAD_SAFETY_ANALYSIS {
    while (!pred()) Wait(mu);
  }

  /// Blocks until pred() holds or `timeout_millis` elapses; returns
  /// the final pred() value (mirrors std::condition_variable::
  /// wait_for with a predicate). Same body-analysis note as Wait.
  template <typename Pred>
  [[nodiscard]] bool WaitFor(Mutex& mu, double timeout_millis, Pred pred)
      ADA_REQUIRES(mu) ADA_NO_THREAD_SAFETY_ANALYSIS {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_millis));
    while (!pred()) {
      if (!WaitUntil(mu, deadline)) return pred();
    }
    return true;
  }

  void NotifyOne();
  void NotifyAll();

 private:
  std::condition_variable cv_;
};

}  // namespace common
}  // namespace adahealth

#endif  // ADAHEALTH_COMMON_SYNC_H_
