#include "ml/cross_validation.h"

#include "common/metrics.h"

namespace adahealth {
namespace ml {

using common::StatusOr;
using transform::Matrix;

StatusOr<std::vector<Fold>> StratifiedKFold(
    const std::vector<int32_t>& labels, int32_t num_classes,
    int32_t num_folds, uint64_t seed) {
  if (num_folds < 2) {
    return common::InvalidArgumentError("num_folds must be >= 2");
  }
  if (static_cast<size_t>(num_folds) > labels.size()) {
    return common::InvalidArgumentError("num_folds exceeds sample count");
  }
  if (num_classes < 1) {
    return common::InvalidArgumentError("num_classes must be >= 1");
  }

  // Bucket sample ids per class, shuffle each bucket, deal round-robin.
  std::vector<std::vector<size_t>> by_class(
      static_cast<size_t>(num_classes));
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < 0 || labels[i] >= num_classes) {
      return common::InvalidArgumentError("label outside [0, num_classes)");
    }
    by_class[static_cast<size_t>(labels[i])].push_back(i);
  }
  // Stratification is degenerate when a present class has fewer members
  // than folds: it cannot appear in every fold's test set, so the
  // per-fold class proportions the estimate relies on are unattainable.
  for (const auto& bucket : by_class) {
    if (!bucket.empty() && bucket.size() < static_cast<size_t>(num_folds)) {
      return common::InvalidArgumentError(
          "degenerate fold (class with " + std::to_string(bucket.size()) +
          " members cannot be stratified into " +
          std::to_string(num_folds) + " folds)");
    }
  }
  common::Rng rng(seed);
  const size_t k = static_cast<size_t>(num_folds);
  std::vector<size_t> fold_of(labels.size());
  std::vector<size_t> fold_size(k, 0);
  size_t deal = 0;
  for (auto& bucket : by_class) {
    rng.Shuffle(bucket);
    for (size_t id : bucket) {
      fold_of[id] = deal % k;
      ++fold_size[deal % k];
      ++deal;
    }
  }

  // One ascending pass over the samples leaves every fold's ids sorted.
  std::vector<Fold> folds(k);
  for (size_t f = 0; f < k; ++f) {
    if (fold_size[f] == 0 || fold_size[f] == labels.size()) {
      return common::InvalidArgumentError(
          "degenerate fold (too many folds for the sample size)");
    }
    folds[f].test_ids.reserve(fold_size[f]);
    folds[f].train_ids.reserve(labels.size() - fold_size[f]);
  }
  for (size_t id = 0; id < labels.size(); ++id) {
    for (size_t f = 0; f < k; ++f) {
      (f == fold_of[id] ? folds[f].test_ids : folds[f].train_ids)
          .push_back(id);
    }
  }
  return folds;
}

StatusOr<ClassificationReport> CrossValidate(
    const Matrix& features, const std::vector<int32_t>& labels,
    int32_t num_classes, int32_t num_folds, uint64_t seed,
    const ClassifierFactory& factory) {
  if (labels.size() != features.rows()) {
    return common::InvalidArgumentError("label count != sample count");
  }
  auto folds_or = StratifiedKFold(labels, num_classes, num_folds, seed);
  if (!folds_or.ok()) return folds_or.status();

  std::vector<int32_t> pooled_truth;
  std::vector<int32_t> pooled_predicted;
  pooled_truth.reserve(labels.size());
  pooled_predicted.reserve(labels.size());

  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  for (const Fold& fold : folds_or.value()) {
    std::unique_ptr<Classifier> model = factory();
    common::Status fit_status;
    {
      common::ScopedTimer fit_timer(metrics, "cv/fold_fit_seconds");
      fit_status =
          model->FitRows(features, fold.train_ids, labels, num_classes);
    }
    if (!fit_status.ok()) return fit_status;
    common::ScopedTimer predict_timer(metrics, "cv/fold_predict_seconds");
    for (size_t id : fold.test_ids) {
      pooled_truth.push_back(labels[id]);
      pooled_predicted.push_back(model->Predict(features.Row(id)));
    }
    predict_timer.Stop();
    metrics.GetCounter("cv/folds").Increment();
  }
  return EvaluateClassification(pooled_truth, pooled_predicted, num_classes);
}

}  // namespace ml
}  // namespace adahealth
