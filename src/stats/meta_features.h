// Dataset meta-features: the statistical characterization of an
// examination log that ADA-HEALTH stores in the K-DB (collection 3,
// "statistical descriptors to model the data distribution") and feeds
// to the end-goal identification engine.
#ifndef ADAHEALTH_STATS_META_FEATURES_H_
#define ADAHEALTH_STATS_META_FEATURES_H_

#include <cstdint>
#include <string>

#include "common/json.h"
#include "dataset/exam_log.h"

namespace adahealth {
namespace stats {

/// Compact statistical fingerprint of an examination log.
struct MetaFeatures {
  int64_t num_patients = 0;
  int64_t num_exam_types = 0;
  int64_t num_records = 0;

  /// Fraction of (patient, exam-type) cells that are non-zero in the
  /// count matrix; 1 - density is the paper's "inherent sparseness".
  double density = 0.0;

  /// Records-per-patient distribution.
  double mean_records_per_patient = 0.0;
  double stddev_records_per_patient = 0.0;

  /// Exam-frequency distribution shape.
  double exam_frequency_entropy = 0.0;      // Normalized, in [0, 1].
  double exam_frequency_gini = 0.0;         // In [0, 1).
  double top20_coverage = 0.0;              // Mass of the top 20% exams.
  double top40_coverage = 0.0;              // Mass of the top 40% exams.

  /// Patient-coverage distribution: mean fraction of patients that
  /// underwent each exam type.
  double mean_patient_coverage = 0.0;

  /// Serializes to a flat JSON object (for the K-DB).
  common::Json ToJson() const;

  /// Parses a JSON object produced by ToJson(). Missing fields default
  /// to zero; non-objects fail.
  [[nodiscard]] static common::StatusOr<MetaFeatures> FromJson(const common::Json& json);

  /// Flattens to a fixed-order numeric vector (model input for the
  /// end-goal classifiers). Order matches FeatureNames().
  std::vector<double> ToVector() const;

  /// Names of the ToVector() dimensions.
  // ada-lint: allow(unreached-symbol) endgoal_test and MetaFeaturesTest
  // name the ToVector() dimensions with it.
  static std::vector<std::string> FeatureNames();
};

/// Computes the meta-features of `log`.
MetaFeatures ComputeMetaFeatures(const dataset::ExamLog& log);

}  // namespace stats
}  // namespace adahealth

#endif  // ADAHEALTH_STATS_META_FEATURES_H_
