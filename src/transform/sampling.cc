#include "transform/sampling.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace adahealth {
namespace transform {

using common::InvalidArgumentError;
using common::Rng;
using common::StatusOr;
using dataset::ExamLog;
using dataset::PatientId;

namespace {

size_t TargetCount(size_t total, double fraction) {
  size_t count = static_cast<size_t>(
      std::llround(fraction * static_cast<double>(total)));
  count = std::min(count, total);
  if (total > 0 && count == 0) count = 1;
  return count;
}

}  // namespace

StatusOr<std::vector<PatientId>> SamplePatients(const ExamLog& log,
                                                double fraction, Rng& rng) {
  if (fraction <= 0.0 || fraction > 1.0) {
    return InvalidArgumentError("sample fraction must be in (0, 1]");
  }
  size_t count = TargetCount(log.num_patients(), fraction);
  std::vector<size_t> picks =
      rng.SampleWithoutReplacement(log.num_patients(), count);
  std::vector<PatientId> patients(picks.size());
  for (size_t i = 0; i < picks.size(); ++i) {
    patients[i] = static_cast<PatientId>(picks[i]);
  }
  std::sort(patients.begin(), patients.end());
  return patients;
}

StatusOr<std::vector<std::vector<PatientId>>> BuildHorizontalSchedule(
    const ExamLog& log, const std::vector<double>& fractions, Rng& rng) {
  if (fractions.empty()) {
    return InvalidArgumentError("empty horizontal schedule");
  }
  for (size_t i = 0; i < fractions.size(); ++i) {
    if (fractions[i] <= 0.0 || fractions[i] > 1.0) {
      return InvalidArgumentError("horizontal fractions must be in (0, 1]");
    }
    if (i > 0 && fractions[i] <= fractions[i - 1]) {
      return InvalidArgumentError(
          "horizontal fractions must be strictly increasing");
    }
  }
  // Draw one random permutation; each step takes a growing prefix, so
  // the subsets are nested.
  std::vector<PatientId> permutation(log.num_patients());
  for (size_t i = 0; i < permutation.size(); ++i) {
    permutation[i] = static_cast<PatientId>(i);
  }
  rng.Shuffle(permutation);

  std::vector<std::vector<PatientId>> schedule;
  schedule.reserve(fractions.size());
  for (double fraction : fractions) {
    size_t count = TargetCount(log.num_patients(), fraction);
    std::vector<PatientId> subset(permutation.begin(),
                                  permutation.begin() +
                                      static_cast<ptrdiff_t>(count));
    std::sort(subset.begin(), subset.end());
    schedule.push_back(std::move(subset));
  }
  return schedule;
}

}  // namespace transform
}  // namespace adahealth
