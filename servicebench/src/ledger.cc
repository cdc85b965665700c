#include "ledger.h"

namespace servicebench {

using adahealth::common::StatusCode;

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kError:
      return "error";
    case Outcome::kShed:
      return "shed";
    case Outcome::kExpired:
      return "expired";
    case Outcome::kUnavailable:
      return "unavailable";
    case Outcome::kGuardRejected:
      return "guard_rejected";
  }
  return "unknown";
}

Outcome Classify(const adahealth::common::StatusOr<adahealth::common::Json>&
                     reply) {
  if (!reply.ok()) {
    switch (reply.status().code()) {
      case StatusCode::kResourceExhausted:
        return Outcome::kShed;
      case StatusCode::kDeadlineExceeded:
        return Outcome::kExpired;
      case StatusCode::kUnavailable:
        return Outcome::kUnavailable;
      case StatusCode::kFailedPrecondition:
        return Outcome::kGuardRejected;
      default:
        return Outcome::kError;
    }
  }
  const adahealth::common::Json* state = reply.value().Find("state");
  if (state != nullptr && state->is_string()) {
    const std::string& name = state->AsString();
    if (name == "expired") return Outcome::kExpired;
    if (name == "failed" || name == "cancelled") return Outcome::kError;
  }
  return Outcome::kOk;
}

void Ledger::Merge(const Ledger& other) {
  for (size_t i = 0; i < kNumOutcomes; ++i) counts_[i] += other.counts_[i];
}

int64_t Ledger::attempted() const {
  int64_t total = 0;
  for (int64_t count : counts_) total += count;
  return total;
}

double Ledger::failed_frac() const {
  const int64_t total = attempted();
  return total == 0 ? 0.0
                    : static_cast<double>(failed()) / static_cast<double>(total);
}

}  // namespace servicebench
