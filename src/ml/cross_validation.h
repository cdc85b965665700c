// Stratified k-fold cross-validation. The paper evaluates the cluster
// robustness classifier with "10-fold cross validation" (§IV-B); this
// module provides the fold construction and the pooled evaluation.
#ifndef ADAHEALTH_ML_CROSS_VALIDATION_H_
#define ADAHEALTH_ML_CROSS_VALIDATION_H_

#include "common/rng.h"
#include "ml/classifier.h"
#include "ml/metrics.h"

namespace adahealth {
namespace ml {

/// One train/test partition.
struct Fold {
  std::vector<size_t> train_ids;
  std::vector<size_t> test_ids;
};

/// Builds `num_folds` stratified folds: each class's samples are
/// shuffled (seeded) and dealt round-robin, so per-fold class
/// proportions track the global ones. Requires 2 <= num_folds <=
/// labels.size() and labels in [0, num_classes).
[[nodiscard]] common::StatusOr<std::vector<Fold>> StratifiedKFold(
    const std::vector<int32_t>& labels, int32_t num_classes,
    int32_t num_folds, uint64_t seed);

/// Runs k-fold cross-validation: for each fold, trains a fresh
/// classifier from `factory` on the training split (Classifier::FitRows,
/// so a decision tree fits without a copy of the fold) and predicts the
/// test split; all test predictions are pooled into one
/// ClassificationReport (each sample is tested exactly once).
[[nodiscard]] common::StatusOr<ClassificationReport> CrossValidate(
    const transform::Matrix& features, const std::vector<int32_t>& labels,
    int32_t num_classes, int32_t num_folds, uint64_t seed,
    const ClassifierFactory& factory);

}  // namespace ml
}  // namespace adahealth

#endif  // ADAHEALTH_ML_CROSS_VALIDATION_H_
