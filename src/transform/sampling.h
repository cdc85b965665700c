// Horizontal sampling of patients — the horizontal dimension of the
// paper's partial-mining strategy ("partial mining can reduce the
// dataset ... by considering different subsets of the input data").
#ifndef ADAHEALTH_TRANSFORM_SAMPLING_H_
#define ADAHEALTH_TRANSFORM_SAMPLING_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "dataset/exam_log.h"

namespace adahealth {
namespace transform {

/// Uniformly samples `fraction` of the patients (without replacement).
/// Result is sorted ascending. Fraction in (0, 1]; at least one patient
/// is returned when the log is non-empty.
[[nodiscard]] common::StatusOr<std::vector<dataset::PatientId>> SamplePatients(
    const dataset::ExamLog& log, double fraction, common::Rng& rng);

/// Builds an incremental horizontal schedule: nested patient subsets of
/// the given fractions (each step is a superset of the previous one),
/// mirroring the paper's "at each step, a larger portion of data is
/// analyzed". Fractions must be strictly increasing in (0, 1].
common::StatusOr<std::vector<std::vector<dataset::PatientId>>>
BuildHorizontalSchedule(const dataset::ExamLog& log,
                        const std::vector<double>& fractions,
                        common::Rng& rng);

}  // namespace transform
}  // namespace adahealth

#endif  // ADAHEALTH_TRANSFORM_SAMPLING_H_
