// Operation accounting: every request the benchmark sends is either a
// success or one of the failure kinds failed_frac counts.
#ifndef SERVICEBENCH_LEDGER_H_
#define SERVICEBENCH_LEDGER_H_

#include <array>
#include <cstdint>

#include "common/json.h"
#include "common/status.h"

namespace servicebench {

enum class Outcome {
  kOk = 0,
  kError = 1,          // Any other error, or a job that failed.
  kShed = 2,           // Refused at admission (RESOURCE_EXHAUSTED).
  kExpired = 3,        // Deadline passed (DEADLINE_EXCEEDED / "expired").
  kUnavailable = 4,    // UNAVAILABLE (transport, dead shard, follower).
  kGuardRejected = 5,  // Ingest replay guard (FAILED_PRECONDITION).
};
inline constexpr size_t kNumOutcomes = 6;

const char* OutcomeName(Outcome outcome);

/// Classifies one reply: an error status by its code; an ok reply by
/// the job state it carries ("expired" -> kExpired, "failed" and
/// "cancelled" -> kError, anything else -> kOk).
Outcome Classify(const adahealth::common::StatusOr<adahealth::common::Json>&
                     reply);

/// Counts outcomes. Not thread-safe: each client thread keeps its own
/// ledger and the runner merges them.
class Ledger {
 public:
  void Record(Outcome outcome) { ++counts_[static_cast<size_t>(outcome)]; }
  void Merge(const Ledger& other);

  int64_t count(Outcome outcome) const {
    return counts_[static_cast<size_t>(outcome)];
  }
  int64_t attempted() const;
  /// Everything but kOk: errors, shed, expired, unavailable and guard
  /// rejections all count as failed.
  int64_t failed() const { return attempted() - count(Outcome::kOk); }
  /// failed / attempted; 0 when nothing was attempted.
  double failed_frac() const;

 private:
  std::array<int64_t, kNumOutcomes> counts_{};
};

}  // namespace servicebench

#endif  // SERVICEBENCH_LEDGER_H_
