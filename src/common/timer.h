// Wall-clock timing helper for benchmarks and progress logging.
#ifndef ADAHEALTH_COMMON_TIMER_H_
#define ADAHEALTH_COMMON_TIMER_H_

#include <chrono>

namespace adahealth {
namespace common {

/// Measures elapsed wall time since construction or the last Restart().
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds as a double.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace common
}  // namespace adahealth

#endif  // ADAHEALTH_COMMON_TIMER_H_
