#include "core/optimizer.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/naive_bayes.h"
#include "transform/sparse_matrix.h"

namespace adahealth {
namespace core {

using common::Status;
using common::StatusOr;
using transform::Matrix;

namespace {

ml::ClassifierFactory MakeFactory(RobustnessModel model) {
  switch (model) {
    case RobustnessModel::kDecisionTree:
      return [] { return std::make_unique<ml::DecisionTreeClassifier>(); };
    case RobustnessModel::kNaiveBayes:
      return [] { return std::make_unique<ml::GaussianNaiveBayes>(); };
    case RobustnessModel::kNearestNeighbors:
      return [] { return std::make_unique<ml::KnnClassifier>(); };
  }
  return [] { return std::make_unique<ml::DecisionTreeClassifier>(); };
}

/// Phase A of one candidate K: the k-means restarts, keeping the
/// best-SSE run. `warm_source` (when non-null) is the best clustering
/// of the nearest previously-evaluated K; one extra run then starts
/// from its centroids adapted to this K — typically one or two drift
/// steps from a local optimum, so it converges in a handful of cheap
/// pruned passes. The k-means++ restarts are unchanged, so the
/// candidate's best SSE can only improve over a cold sweep.
StatusOr<cluster::Clustering> ClusterCandidate(
    const Matrix& data, const transform::CsrMatrix* sparse, int32_t k,
    const OptimizerOptions& options,
    const cluster::Clustering* warm_source) {
  // A triggered "optimizer.candidate" failpoint marks this candidate
  // skipped (the sweep's existing degradation path) without aborting
  // the sweep.
  ADA_RETURN_IF_ERROR(ADA_FAILPOINT("optimizer.candidate"));
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  common::ScopedTimer kmeans_timer(metrics, "optimizer/kmeans_seconds");

  cluster::KMeansOptions kmeans = options.kmeans;
  kmeans.k = k;
  // The sweep measured the density and converted once up front; pin
  // the representation so RunKMeans never repeats either per restart.
  kmeans.representation = sparse != nullptr
                              ? cluster::KMeansRepresentation::kSparse
                              : cluster::KMeansRepresentation::kDense;
  auto run = [&]() {
    return sparse != nullptr ? cluster::RunKMeans(*sparse, kmeans)
                             : cluster::RunKMeans(data, kmeans);
  };
  StatusOr<cluster::Clustering> best =
      common::InternalError("no restart succeeded");
  if (warm_source != nullptr) {
    kmeans.seed = options.seed + static_cast<uint64_t>(k) * 104729;
    kmeans.initial_centroids = cluster::AdaptCentroids(data, *warm_source, k);
    auto clustering = run();
    if (!clustering.ok()) return clustering.status();
    best = std::move(clustering);
    kmeans.initial_centroids = transform::Matrix();
    metrics.GetCounter("optimizer/warm_starts").Increment();
  }
  for (int32_t restart = 0; restart < options.restarts; ++restart) {
    kmeans.seed = options.seed + static_cast<uint64_t>(k) * 104729 +
                  static_cast<uint64_t>(restart) * 15485863;
    auto clustering = run();
    if (!clustering.ok()) return clustering.status();
    if (!best.ok() || clustering->sse < best->sse) {
      best = std::move(clustering);
    }
    metrics.GetCounter("optimizer/restarts").Increment();
  }
  return best;
}

/// Phase B of one candidate K: cross-validate a classifier that
/// re-predicts the cluster labels from the same features.
StatusOr<CandidateEvaluation> AssessCandidate(const Matrix& data,
                                              cluster::Clustering clustering,
                                              double cluster_seconds,
                                              const OptimizerOptions& options) {
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  common::WallTimer cv_timer;
  CandidateEvaluation evaluation;
  evaluation.k = clustering.k;
  evaluation.sse = clustering.sse;
  evaluation.clustering = std::move(clustering);

  auto report = ml::CrossValidate(
      data, evaluation.clustering.assignments, evaluation.k,
      options.cv_folds, options.seed + static_cast<uint64_t>(evaluation.k),
      MakeFactory(options.model));
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

  // Phase A — clustering, serial and in candidate order so each K can
  // warm-start from the best solution of the nearest K evaluated
  // before it (and so results never depend on the thread count). The
  // cores not used at this level feed the k-means engine's row-level
  // parallelism on ThreadPool::Shared() instead.
  std::vector<StatusOr<cluster::Clustering>> clusterings(
      num_candidates, common::InternalError("not clustered"));
  std::vector<double> cluster_seconds(num_candidates, 0.0);

  // Representation hoisting: measure the nnz density and convert to
  // CSR (when the options select it) once per sweep, instead of once
  // per restart inside RunKMeans. Every candidate run below then pins
  // the decided representation. Results are identical either way.
  transform::CsrMatrix sparse_data;
  // Probe with the largest candidate K: one conversion is amortized
  // over the whole sweep, so the small-k gate inside ShouldUseSparse
  // (which protects single runs) should not veto the hoist.
  cluster::KMeansOptions probe = options.kmeans;
  for (int32_t candidate_k : options.candidate_ks) {
    probe.k = std::max(probe.k, candidate_k);
  }
  const bool use_sparse = cluster::internal::ShouldUseSparse(data, probe);
  if (use_sparse) {
    sparse_data = transform::CsrMatrix::FromDense(data);
    common::MetricsRegistry::Default()
        .GetCounter("optimizer/sparse_sweeps")
        .Increment();
  }
  const transform::CsrMatrix* sparse = use_sparse ? &sparse_data : nullptr;

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
  common::WallTimer cluster_timer;
  for (size_t i : eval_order) {
    cluster_timer.Restart();
    clusterings[i] = ClusterCandidate(data, sparse, options.candidate_ks[i],
                                      options, warm_source);
    cluster_seconds[i] = cluster_timer.ElapsedSeconds();
    if (clusterings[i].ok()) warm_source = &*clusterings[i];
  }

  // Phase B — robustness assessment (classifier cross-validation) per
  // candidate, fanned out across options.num_threads. The former
  // design parallelized whole candidates, so a sweep could never use
  // more threads than candidates no matter how many cores were free;
  // now the clustering phase scales with the data instead.
  size_t num_threads = options.num_threads;
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  num_threads = std::min(num_threads, num_candidates);
  auto assess = [&](size_t i) {
    if (!clusterings[i].ok()) {
      evaluations[i] = clusterings[i].status();
      return;
    }
    evaluations[i] =
        AssessCandidate(data, std::move(clusterings[i]).value(),
                        cluster_seconds[i], options);
  };
  if (num_threads <= 1) {
    for (size_t i = 0; i < num_candidates; ++i) assess(i);
  } else {
    common::ThreadPool pool(num_threads);
    common::ParallelFor(pool, 0, num_candidates, assess);
  }

  // A candidate whose evaluation fails (e.g. a cluster too small for
  // cv_folds-stratified CV) is recorded as skipped instead of failing
  // the whole sweep; the sweep errors only when nothing was evaluated.
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
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
