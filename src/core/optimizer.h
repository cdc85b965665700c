// The ADA-HEALTH algorithm-optimization component (paper §IV-A):
// "Given a dataset and a clustering algorithm, our technique performs
// several runs of the mining activity with varying parameters (e.g.
// different numbers of clusters)". Each candidate K is scored by
//  (a) the SSE interestingness index, and
//  (b) cluster robustness: a classifier trained to re-predict the
//      cluster labels from the same input features, evaluated with
//      k-fold cross-validation (accuracy, average precision, average
//      recall — the columns of Table I).
// The K with the best overall classification results is selected
// automatically (the paper picks K = 8).
#ifndef ADAHEALTH_CORE_OPTIMIZER_H_
#define ADAHEALTH_CORE_OPTIMIZER_H_

#include <vector>

#include "cluster/kmeans.h"
#include "common/status.h"
#include "transform/matrix.h"

namespace adahealth {
namespace core {

/// Robustness assessor model (ablation A3).
enum class RobustnessModel {
  kDecisionTree,  // The paper's choice.
  kNaiveBayes,
  kNearestNeighbors,
};

struct OptimizerOptions {
  /// Candidate cluster counts (Table I: 6,7,8,9,10,12,15,20).
  std::vector<int32_t> candidate_ks = {6, 7, 8, 9, 10, 12, 15, 20};
  /// Base K-means configuration; k is overridden per candidate.
  cluster::KMeansOptions kmeans;
  /// Cross-validation folds (paper: 10).
  int32_t cv_folds = 10;
  /// K-means restarts per candidate; the best-SSE run is kept, so the
  /// robustness assessment scores the algorithm's best effort at each
  /// K rather than one local optimum. Every candidate after the first
  /// additionally runs once warm-started from the best solution of
  /// the nearest K evaluated before it (cluster::AdaptCentroids) — a
  /// cheap, fast-converging extra attempt that can only improve the
  /// kept best over the independent k-means++ restarts.
  int32_t restarts = 3;
  RobustnessModel model = RobustnessModel::kDecisionTree;
  uint64_t seed = 29;
  /// Cross-run warm start (the streaming cohort store's delta jobs):
  /// when non-empty and its column count matches the data, these
  /// centroids — typically the previous generation's selected solution
  /// — are turned into the sweep's initial warm source, so the FIRST
  /// candidate K already gets a warm-started run (adapted via
  /// cluster::AdaptCentroids) on top of its k-means++ restarts, and
  /// every later candidate chains from the best solution so far as
  /// usual. The candidate whose K equals the hint's row count (the
  /// prior selected K) is evaluated first — results still land at
  /// their canonical candidate_ks positions — so callers never need to
  /// reorder candidate_ks, which is fingerprint-significant in the
  /// service layer. A hint only: the independent restarts still run
  /// with their cold seeds, so the kept best-SSE solution can never be
  /// worse than a cold sweep's. Mismatched dimensions are ignored
  /// silently (the cold path). The explicit {} keeps designated-init
  /// call sites clean under -Wmissing-field-initializers.
  transform::Matrix warm_centroids{};
};

/// Per-candidate measurements (one Table I row).
struct CandidateEvaluation {
  int32_t k = 0;
  /// OK when the candidate was evaluated; the failure reason when it
  /// was skipped (e.g. a cluster too small for cv_folds-stratified CV).
  /// Skipped candidates keep their slot with zeroed metrics so
  /// `candidates[i].k == candidate_ks[i]` always holds.
  common::Status status;
  double sse = 0.0;
  double accuracy = 0.0;
  double avg_precision = 0.0;
  double avg_recall = 0.0;
  /// Composite selection score: mean of the three CV metrics.
  double composite = 0.0;
  cluster::Clustering clustering;

  bool skipped() const { return !status.ok(); }
};

struct OptimizerResult {
  std::vector<CandidateEvaluation> candidates;  // In candidate_ks order.
  /// Index of the best *evaluated* candidate (never a skipped one).
  size_t best_index = 0;

  int32_t best_k() const { return candidates[best_index].k; }
  const CandidateEvaluation& best() const {
    return candidates[best_index];
  }
  size_t num_skipped() const {
    size_t skipped = 0;
    for (const CandidateEvaluation& candidate : candidates) {
      if (candidate.skipped()) ++skipped;
    }
    return skipped;
  }
};

/// Sweeps the candidate Ks over `data` (rows = patients in VSM form)
/// and selects the best configuration.
[[nodiscard]] common::StatusOr<OptimizerResult> OptimizeClustering(
    const transform::Matrix& data, const OptimizerOptions& options);

}  // namespace core
}  // namespace adahealth

#endif  // ADAHEALTH_CORE_OPTIMIZER_H_
