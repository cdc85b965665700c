// Minimal leveled logger used across ADA-HEALTH.
//
// Usage:
//   ADA_LOG(kInfo) << "optimizer picked k=" << best_k;
//
// Messages below the global threshold (default kInfo) are discarded
// cheaply. Output goes to stderr with a level prefix.
#ifndef ADAHEALTH_COMMON_LOGGING_H_
#define ADAHEALTH_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace adahealth {
namespace common {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

/// Sets the global minimum level that is actually emitted.
void SetLogThreshold(LogLevel level);

/// Returns the current global threshold.
// ada-lint: allow(unreached-symbol) router_test saves and restores the
// threshold around a noisy case.
LogLevel LogThreshold();

/// One in-flight log statement; flushes on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace common
}  // namespace adahealth

#define ADA_LOG(severity)                                        \
  ::adahealth::common::LogMessage(                               \
      ::adahealth::common::LogLevel::severity, __FILE__, __LINE__)

#endif  // ADAHEALTH_COMMON_LOGGING_H_
