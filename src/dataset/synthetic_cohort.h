// Synthetic diabetic-cohort generator.
//
// The paper evaluates on a proprietary anonymized examination log
// (6,380 diabetic patients, 95,788 records, 159 exam types, ages 4–95,
// one year). This generator produces a log with the same shape:
//
//  * Exam-type marginal frequencies follow a Zipf law (exponent 1.0 by
//    default), which reproduces the paper's coverage curve: the top
//    20% of exam types by frequency cover ~70% of the records and the
//    top 40% cover ~85% (§IV-B), and gives the "inherently sparse
//    distribution" the paper emphasizes.
//  * Patients belong to one of `num_profiles` latent clinical profiles
//    (well-controlled, cardiovascular, retinopathy, nephropathy,
//    neuropathy, foot complication, newly diagnosed, multi-morbid).
//    Each profile boosts the sampling weight of its signature exam
//    groups, creating the recoverable group structure that drives the
//    paper's K-means experiments (Table I selects K = 8).
//
// Generation is fully deterministic given the seed.
#ifndef ADAHEALTH_DATASET_SYNTHETIC_COHORT_H_
#define ADAHEALTH_DATASET_SYNTHETIC_COHORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dataset/exam_log.h"
#include "dataset/taxonomy.h"

namespace adahealth {
namespace dataset {

/// Parameters of the synthetic cohort. Defaults match the paper's
/// dataset scale.
struct CohortConfig {
  /// Number of patients in the cohort.
  int32_t num_patients = 6380;
  /// Number of distinct examination types.
  int32_t num_exam_types = 159;
  /// Expected records per patient (6380 * 15.015 ~= 95,788 records).
  double mean_records_per_patient = 15.015;
  /// Number of latent clinical profiles (paper's optimum: K = 8).
  int32_t num_profiles = 8;
  /// Zipf exponent of the exam-type popularity law. The default is
  /// calibrated so the top 20% / 40% of exam types cover ~70% / ~85%
  /// of the records (paper §IV-B).
  double zipf_exponent = 1.20;
  /// Peak multiplier applied to the weight of a profile's signature
  /// exams; the effective boost grows with the exam's within-group
  /// specialization rank (routine panels carry no profile signal).
  double profile_boost = 12.0;
  /// Per-patient heterogeneity: variance of the multiplicative gamma
  /// noise applied to each patient's exam-group propensities (mean 1).
  /// 0 disables it; higher values blur the latent profiles, mimicking
  /// the individual variability of real clinical histories.
  double patient_heterogeneity = 0.35;
  /// Days covered by the log (paper: one year).
  int32_t num_days = 365;
  /// RNG seed; identical seeds produce identical cohorts.
  uint64_t seed = 20160516;  // ICDEW'16 workshop date.
};

/// A generated cohort: the examination log plus the taxonomy used to
/// generate it and human-readable profile names.
struct Cohort {
  ExamLog log;
  Taxonomy taxonomy;
  std::vector<std::string> profile_names;
};

/// Generates a synthetic diabetic cohort.
class SyntheticCohortGenerator {
 public:
  explicit SyntheticCohortGenerator(CohortConfig config)
      : config_(config) {}

  /// Validates the config and generates the cohort.
  [[nodiscard]] common::StatusOr<Cohort> Generate() const;

  const CohortConfig& config() const { return config_; }

 private:
  CohortConfig config_;
};

/// INVALID_ARGUMENT naming `field` when `patients` × `mean_records`
/// expected records exceed kMaxCohortRecords, or the product is not a
/// number. The product is taken in double, before any cast.
[[nodiscard]] common::Status CheckSyntheticSize(int32_t patients,
                                                double mean_records,
                                                std::string_view field);

/// Config matching the paper's dataset scale (the default CohortConfig).
CohortConfig PaperScaleConfig();

/// A reduced config (400 patients, 48 exam types, 4 profiles) for fast
/// unit tests; preserves the qualitative structure.
CohortConfig TestScaleConfig();

}  // namespace dataset
}  // namespace adahealth

#endif  // ADAHEALTH_DATASET_SYNTHETIC_COHORT_H_
