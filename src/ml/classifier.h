// Abstract classifier interface shared by the decision tree and naive
// Bayes models; lets the cluster-robustness assessor and the end-goal
// engine swap models (ablation A3 in DESIGN.md).
#ifndef ADAHEALTH_ML_CLASSIFIER_H_
#define ADAHEALTH_ML_CLASSIFIER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "transform/matrix.h"

namespace adahealth {
namespace ml {

/// Supervised multi-class classifier over dense feature vectors.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on rows of `features` with labels in [0, num_classes).
  /// Returns INVALID_ARGUMENT on shape/label errors. May be called
  /// again to retrain from scratch.
  [[nodiscard]] virtual common::Status Fit(
      const transform::Matrix& features, const std::vector<int32_t>& labels,
      int32_t num_classes) = 0;

  /// Trains on the listed rows of `features` (strictly ascending),
  /// with `labels` indexed like the rows of `features`. Equivalent to
  /// Fit on `features.SelectRows(rows)` and those rows' labels, which
  /// is what this default does; a model that can fit without the copy
  /// overrides it. INVALID_ARGUMENT as Fit, and for rows that are
  /// unsorted, repeated or out of range.
  [[nodiscard]] virtual common::Status FitRows(
      const transform::Matrix& features, const std::vector<size_t>& rows,
      const std::vector<int32_t>& labels, int32_t num_classes) {
    common::Status valid = ValidateRows(rows, features.rows());
    if (!valid.ok()) return valid;
    if (labels.size() != features.rows()) {
      return common::InvalidArgumentError("label count != sample count");
    }
    std::vector<int32_t> row_labels(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) row_labels[i] = labels[rows[i]];
    return Fit(features.SelectRows(rows), row_labels, num_classes);
  }

  /// OK when `rows` is strictly ascending and every row is below
  /// `num_rows`.
  [[nodiscard]] static common::Status ValidateRows(
      const std::vector<size_t>& rows, size_t num_rows) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i] >= num_rows) {
        return common::InvalidArgumentError("training row out of range");
      }
      if (i > 0 && rows[i] <= rows[i - 1]) {
        return common::InvalidArgumentError(
            "training rows not strictly ascending");
      }
    }
    return common::OkStatus();
  }

  /// Predicts the label of one feature vector. Requires a prior
  /// successful Fit with matching dimensionality.
  virtual int32_t Predict(std::span<const double> features) const = 0;
};

/// Factory producing fresh untrained classifiers (one per CV fold).
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

}  // namespace ml
}  // namespace adahealth

#endif  // ADAHEALTH_ML_CLASSIFIER_H_
