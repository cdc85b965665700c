#include "core/optimizer.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "cluster/sweep.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/naive_bayes.h"

namespace adahealth {
namespace core {

using common::Status;
using common::StatusOr;
using transform::Matrix;

namespace {

/// `presorted` is the decision tree's presort of the optimizer's data,
/// shared by every fold of every candidate.
ml::ClassifierFactory MakeFactory(RobustnessModel model,
                                  const ml::PresortedFeatures* presorted) {
  switch (model) {
    case RobustnessModel::kDecisionTree:
      break;
    case RobustnessModel::kNaiveBayes:
      return [] { return std::make_unique<ml::GaussianNaiveBayes>(); };
    case RobustnessModel::kNearestNeighbors:
      return [] { return std::make_unique<ml::KnnClassifier>(); };
  }
  return [presorted] {
    return std::make_unique<ml::DecisionTreeClassifier>(
        ml::DecisionTreeOptions(), presorted);
  };
}

/// Phase B of one candidate K: cross-validate a classifier that
/// re-predicts the cluster labels from the same features.
StatusOr<CandidateEvaluation> AssessCandidate(
    const Matrix& data, cluster::Clustering clustering,
    double cluster_seconds, const OptimizerOptions& options,
    const ml::ClassifierFactory& factory) {
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  common::WallTimer cv_timer;
  CandidateEvaluation evaluation;
  evaluation.k = clustering.k;
  evaluation.sse = clustering.sse;
  evaluation.clustering = std::move(clustering);

  auto report = ml::CrossValidate(
      data, evaluation.clustering.assignments, evaluation.k,
      options.cv_folds, options.seed + static_cast<uint64_t>(evaluation.k),
      factory);
  const double cv_seconds = cv_timer.ElapsedSeconds();
  metrics.GetHistogram("optimizer/cv_seconds").Record(cv_seconds);
  metrics.GetHistogram("optimizer/candidate_eval_seconds")
      .Record(cluster_seconds + cv_seconds);
  if (!report.ok()) return report.status();
  evaluation.accuracy = report->accuracy;
  evaluation.avg_precision = report->macro_precision;
  evaluation.avg_recall = report->macro_recall;
  evaluation.composite = (evaluation.accuracy + evaluation.avg_precision +
                          evaluation.avg_recall) /
                         3.0;
  return evaluation;
}

}  // namespace

StatusOr<OptimizerResult> OptimizeClustering(
    const Matrix& data, const OptimizerOptions& options) {
  if (data.rows() == 0 || data.cols() == 0) {
    return common::InvalidArgumentError("optimizer requires non-empty data");
  }
  if (options.candidate_ks.empty()) {
    return common::InvalidArgumentError("no candidate K values");
  }
  for (int32_t k : options.candidate_ks) {
    if (k < 2 || static_cast<size_t>(k) > data.rows()) {
      return common::InvalidArgumentError(
          "candidate K outside [2, number of points]");
    }
  }
  if (options.cv_folds < 2) {
    return common::InvalidArgumentError("cv_folds must be >= 2");
  }
  if (options.restarts < 1) {
    return common::InvalidArgumentError("restarts must be >= 1");
  }

  const size_t num_candidates = options.candidate_ks.size();
  std::vector<StatusOr<CandidateEvaluation>> evaluations(
      num_candidates, common::InternalError("not evaluated"));

  // Cross-run warm start: adopt the caller-provided centroids (a prior
  // generation's solution) as the initial warm source. AdaptCentroids
  // needs assignments aligned with THIS data, so the hint is
  // re-assigned against it first — the persisted centroids may come
  // from an earlier snapshot of a growing cohort.
  cluster::Clustering warm_hint;
  const cluster::Clustering* warm_source = nullptr;
  if (!options.warm_centroids.empty() &&
      options.warm_centroids.cols() == data.cols() &&
      options.warm_centroids.rows() >= 1 &&
      options.warm_centroids.rows() <= data.rows()) {
    warm_hint.k = static_cast<int32_t>(options.warm_centroids.rows());
    warm_hint.centroids = options.warm_centroids;
    warm_hint.sse = cluster::AssignToCentroids(data, warm_hint.centroids,
                                               warm_hint.assignments);
    warm_source = &warm_hint;
    common::MetricsRegistry::Default()
        .GetCounter("optimizer/warm_seeded_sweeps")
        .Increment();
  }
  // Evaluation order: with a cross-run warm hint, the hint's K (its
  // centroid row count — the prior generation's selected K) is
  // evaluated first so every later candidate chains from an
  // already-good solution. The order lives HERE, keyed off
  // warm_centroids, rather than in the caller's candidate_ks:
  // candidate_ks is hashed in order by the service's options signature,
  // so reordering it would split the delta/cold fingerprint. Results
  // are stored at their canonical candidate_ks index either way, so
  // `candidates[i].k == candidate_ks[i]` and the report's row order
  // never depend on the hint.
  std::vector<size_t> eval_order(num_candidates);
  for (size_t i = 0; i < num_candidates; ++i) eval_order[i] = i;
  if (warm_source != nullptr) {
    for (size_t i = 0; i < num_candidates; ++i) {
      if (options.candidate_ks[i] == warm_hint.k) {
        std::rotate(eval_order.begin(), eval_order.begin() + i,
                    eval_order.begin() + i + 1);
        break;
      }
    }
  }
  // Phase A — clustering. A triggered "optimizer.candidate" failpoint
  // marks its candidate skipped (the sweep's degradation path) without
  // aborting the sweep. It is evaluated here, serially in evaluation
  // order, so a skipped candidate launches no runs and hit counting
  // (@nth, *count) follows the evaluation order.
  std::vector<StatusOr<cluster::Clustering>> clusterings(
      num_candidates, common::InternalError("not clustered"));
  std::vector<double> cluster_seconds(num_candidates, 0.0);
  std::vector<size_t> swept;
  std::vector<int32_t> swept_ks;
  for (size_t i : eval_order) {
    Status injected = ADA_FAILPOINT("optimizer.candidate");
    if (!injected.ok()) {
      clusterings[i] = std::move(injected);
      continue;
    }
    swept.push_back(i);
    swept_ks.push_back(options.candidate_ks[i]);
  }
  // One sweep clusters every remaining candidate: its k-means++
  // restarts fan out over ThreadPool::Shared() at once, and each K
  // after the first (or every K, with a warm hint) adds one run
  // warm-started from the best solution of the nearest K evaluated
  // before it (cluster::AdaptCentroids) — typically one or two drift
  // steps from a local optimum, so it converges in a handful of cheap
  // pruned passes. The warm chain and the best-SSE reduction run in
  // evaluation order, so results never depend on the thread count.
  cluster::SweepOptions sweep;
  sweep.kmeans = options.kmeans;
  sweep.restarts = options.restarts;
  sweep.seed_base = options.seed;
  sweep.k_stride = 104729;
  sweep.restart_stride = 15485863;
  sweep.warm_source = warm_source;
  std::vector<cluster::SweepResult> swept_results =
      cluster::SweepKs(data, swept_ks, sweep);
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  for (size_t j = 0; j < swept.size(); ++j) {
    const size_t i = swept[j];
    cluster::SweepResult& swept_result = swept_results[j];
    // K-means busy time of this candidate's own runs, not a wall span
    // around the fan-out.
    cluster_seconds[i] = swept_result.kmeans_seconds;
    metrics.GetHistogram("optimizer/kmeans_seconds")
        .Record(cluster_seconds[i]);
    if (swept_result.warm_started) {
      metrics.GetCounter("optimizer/warm_starts").Increment();
    }
    if (swept_result.best.ok()) {
      metrics.GetCounter("optimizer/restarts").Increment(options.restarts);
    }
    clusterings[i] = std::move(swept_result.best);
  }

  // Phase B — robustness assessment (classifier cross-validation) per
  // candidate, fanned out on ThreadPool::Shared() one candidate per
  // task. ParallelFor is nesting-safe, so a caller already running on
  // a pool worker (a service job) shares the same cores instead of
  // oversubscribing them with a private pool. Every candidate clusters
  // the same matrix, so the decision tree's presort is built once here
  // and every fold of every candidate fits from it.
  std::optional<ml::PresortedFeatures> presorted;
  if (options.model == RobustnessModel::kDecisionTree) presorted.emplace(data);
  const ml::ClassifierFactory factory = MakeFactory(
      options.model, presorted.has_value() ? &*presorted : nullptr);
  common::ParallelFor(
      common::ThreadPool::Shared(), 0, num_candidates,
      [&](size_t i) {
        if (!clusterings[i].ok()) {
          evaluations[i] = clusterings[i].status();
          return;
        }
        evaluations[i] =
            AssessCandidate(data, std::move(clusterings[i]).value(),
                            cluster_seconds[i], options, factory);
      },
      1);

  // A candidate whose evaluation fails (e.g. a cluster too small for
  // cv_folds-stratified CV) is recorded as skipped instead of failing
  // the whole sweep; the sweep errors only when nothing was evaluated.
  OptimizerResult result;
  result.candidates.reserve(num_candidates);
  double best_composite = -1.0;
  size_t num_evaluated = 0;
  for (size_t i = 0; i < num_candidates; ++i) {
    CandidateEvaluation candidate;
    if (evaluations[i].ok()) {
      candidate = std::move(evaluations[i]).value();
      ++num_evaluated;
    } else {
      candidate.k = options.candidate_ks[i];
      candidate.status = evaluations[i].status();
      metrics.GetCounter("optimizer/candidates_skipped").Increment();
    }
    metrics.GetCounter("optimizer/candidates").Increment();
    result.candidates.push_back(std::move(candidate));
    if (result.candidates.back().status.ok() &&
        result.candidates.back().composite > best_composite) {
      best_composite = result.candidates.back().composite;
      result.best_index = i;
    }
  }
  if (num_evaluated == 0) {
    return common::FailedPreconditionError(
        "every candidate K failed; first error: " +
        result.candidates.front().status.ToString());
  }
  return result;
}

}  // namespace core
}  // namespace adahealth
