// Named fault-injection points for exercising error paths.
//
// Production code marks the places where the outside world can fail
// (file I/O, stage boundaries, task execution) with
//
//   ADA_RETURN_IF_ERROR(ADA_FAILPOINT("kdb.storage.write"));
//
// Normally the failpoint is dormant and evaluates to OK at the cost of
// one mutex-guarded map lookup. Tests (or an operator, via the
// ADA_FAILPOINTS environment variable) arm points with a trigger:
//
//   spec      := point '=' action (';' point '=' action)*
//   action    := 'off' | trigger modifiers
//   trigger   := 'error(' CODE [',' message] ')' | 'delay(' millis ')'
//              | 'throw(' [message] ')'
//   modifiers := ['*' count] ['@' nth]
//
//   CODE is a canonical status-code name (UNAVAILABLE, DATA_LOSS, ...).
//   throw(bad_alloc) throws std::bad_alloc; any other throw() throws
//   std::runtime_error carrying the message, for the code that must
//   answer even when a callee throws.
//   '*N'  limits the trigger to N activations (default: unlimited);
//   '@N'  arms it starting from the N-th hit, 1-based (default: 1).
//
// Examples:
//   kdb.storage.rename=error(UNAVAILABLE)*1      one-shot rename failure
//   session.optimizer=error(INTERNAL)@3          fail from the 3rd hit on
//   kdb.storage.fsync=delay(50)*2                50 ms stall, twice
//   router.prepare=throw(bad_alloc)*1            one std::bad_alloc
//
// Compiling with -DADA_FAILPOINTS_DISABLED turns every ADA_FAILPOINT
// into a constant OkStatus() with no registry access, for builds where
// even the dormant lookup is unwanted.
#ifndef ADAHEALTH_COMMON_FAILPOINT_H_
#define ADAHEALTH_COMMON_FAILPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace adahealth {
namespace common {

/// What an armed failpoint does when it fires.
struct FailpointConfig {
  enum class Kind { kError, kDelay, kThrow };

  Kind kind = Kind::kError;
  /// kError: the status returned by Evaluate().
  StatusCode code = StatusCode::kUnavailable;
  /// kError: the status message; kThrow: the exception's ("bad_alloc"
  /// throws std::bad_alloc).
  std::string message;
  /// kDelay: milliseconds to sleep before returning OK.
  int64_t delay_millis = 0;
  /// Maximum number of activations; < 0 means unlimited.
  int64_t max_activations = -1;
  /// First hit (1-based) on which the trigger is armed.
  int64_t first_hit = 1;
};

/// Thread-safe registry of armed failpoints. Dormant points (the
/// common case) cost one lock + map lookup per Evaluate.
class FailpointRegistry {
 public:
  FailpointRegistry() = default;
  FailpointRegistry(const FailpointRegistry&) = delete;
  FailpointRegistry& operator=(const FailpointRegistry&) = delete;

  /// The process-wide registry consulted by ADA_FAILPOINT. On first
  /// access it arms any points described by the ADA_FAILPOINTS
  /// environment variable (a malformed spec is logged and ignored so a
  /// bad operator setting cannot take the service down).
  static FailpointRegistry& Default();

  /// Parses one action clause (e.g. "error(UNAVAILABLE,disk full)*1@2").
  [[nodiscard]] static StatusOr<FailpointConfig> ParseAction(
      std::string_view action);

  /// Parses a full spec ("point=action;point=action") and arms every
  /// clause, replacing the registry's previous configuration.
  /// INVALID_ARGUMENT pinpointing the offending clause on bad grammar.
  [[nodiscard]] Status Configure(std::string_view spec)
      ADA_EXCLUDES(mutex_);

  /// Arms (or re-arms) a single point, resetting its hit counter.
  void Arm(const std::string& point, FailpointConfig config)
      ADA_EXCLUDES(mutex_);

  /// Disarms a point; evaluating it is a no-op again.
  void Disarm(const std::string& point) ADA_EXCLUDES(mutex_);

  /// Disarms everything and forgets all hit counters.
  // ada-lint: allow(unreached-symbol) FaultInjectionTest resets the
  // registry with it around every test.
  void Clear() ADA_EXCLUDES(mutex_);

  /// One hit of `point`: bumps its hit counter and, when the trigger
  /// is armed for this hit, sleeps (delay), throws (throw) or returns
  /// the configured error. Dormant or exhausted points return OK.
  [[nodiscard]] Status Evaluate(std::string_view point)
      ADA_EXCLUDES(mutex_);

  /// Total hits observed for `point` (armed or not).
  [[nodiscard]] int64_t hits(const std::string& point) const
      ADA_EXCLUDES(mutex_);

  /// Names of currently armed points, sorted.
  // ada-lint: allow(unreached-symbol) fault_injection_test checks
  // which points are armed.
  [[nodiscard]] std::vector<std::string> ArmedPoints() const
      ADA_EXCLUDES(mutex_);

 private:
  struct ArmedPoint {
    FailpointConfig config;
    int64_t activations = 0;
  };

  mutable Mutex mutex_;
  std::map<std::string, ArmedPoint, std::less<>> armed_
      ADA_GUARDED_BY(mutex_);
  std::map<std::string, int64_t, std::less<>> hit_counts_
      ADA_GUARDED_BY(mutex_);
};

/// RAII helper for tests: arms `point` on construction, disarms it on
/// destruction.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string point, FailpointConfig config)
      : point_(std::move(point)) {
    FailpointRegistry::Default().Arm(point_, std::move(config));
  }
  ~ScopedFailpoint() { FailpointRegistry::Default().Disarm(point_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string point_;
};

/// Convenience: a one-shot error trigger returning `code`.
// ada-lint: allow(unreached-symbol) the one-shot trigger of
// fault_injection_test, service_test and replication_test.
[[nodiscard]] FailpointConfig OneShotError(
    StatusCode code = StatusCode::kUnavailable, std::string message = "");

}  // namespace common
}  // namespace adahealth

#ifdef ADA_FAILPOINTS_DISABLED
#define ADA_FAILPOINT(point) ::adahealth::common::OkStatus()
#else
#define ADA_FAILPOINT(point) \
  ::adahealth::common::FailpointRegistry::Default().Evaluate(point)
#endif

#endif  // ADAHEALTH_COMMON_FAILPOINT_H_
