// Oracle tests for cluster::SweepKs, the K sweep behind adaptive
// partial mining and the optimizer's clustering phase. The serial
// loops it replaced — core::SimilarityPerK with both partial-mining
// strategies, and the optimizer's ClusterCandidate with its Phase A loop —
// are kept below verbatim as oracles. On seeded generated shapes the
// sweep must reproduce them bit for bit: assignments, SSE, centroids,
// iteration counts and the partial-mining similarities.
#include "cluster/sweep.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>
#include "cluster/quality.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/optimizer.h"
#include "core/partial_mining.h"
#include "dataset/synthetic_cohort.h"
#include "transform/feature_select.h"
#include "transform/sampling.h"
#include "transform/sparse_matrix.h"
#include "transform/vsm.h"
#include "test_util.h"

namespace adahealth {
namespace {

using cluster::Clustering;
using common::StatusOr;
using transform::Matrix;

// ---------------------------------------------------------------------
// Oracles: the serial loops the sweep replaced.

/// core::SimilarityPerK before the sweep, verbatim, except that it also
/// hands back each K's kept clustering through `kept`.
StatusOr<std::vector<double>> SerialSimilarityPerKOracle(
    const transform::Matrix& mining_vsm,
    const transform::Matrix& evaluation_vsm,
    const core::PartialMiningOptions& options,
    std::vector<Clustering>* kept) {
  std::vector<double> similarities;
  similarities.reserve(options.ks.size());
  cluster::Clustering previous_best;
  for (int32_t k : options.ks) {
    cluster::KMeansOptions kmeans = options.kmeans;
    kmeans.k = std::min<int32_t>(k, static_cast<int32_t>(mining_vsm.rows()));
    // Best-SSE of `restarts` seeded runs; stable seeds per (K, restart)
    // keep steps comparable. Every K after the first adds one extra
    // run warm-started from the previous K's best solution — it
    // converges in a few cheap pruned passes and can only improve the
    // kept best.
    StatusOr<cluster::Clustering> best =
        common::InternalError("no restart succeeded");
    if (previous_best.k > 0) {
      kmeans.seed = options.kmeans.seed + static_cast<uint64_t>(k) * 7919;
      kmeans.initial_centroids =
          cluster::AdaptCentroids(mining_vsm, previous_best, kmeans.k);
      auto clustering = cluster::RunKMeans(mining_vsm, kmeans);
      if (!clustering.ok()) return clustering.status();
      best = std::move(clustering);
      kmeans.initial_centroids = transform::Matrix();
    }
    for (int32_t restart = 0; restart < options.restarts; ++restart) {
      kmeans.seed = options.kmeans.seed + static_cast<uint64_t>(k) * 7919 +
                    static_cast<uint64_t>(restart) * 104729;
      auto clustering = cluster::RunKMeans(mining_vsm, kmeans);
      if (!clustering.ok()) return clustering.status();
      if (!best.ok() || clustering->sse < best->sse) {
        best = std::move(clustering);
      }
    }
    similarities.push_back(cluster::OverallSimilarity(
        evaluation_vsm, best->assignments, best->k));
    previous_best = std::move(best).value();
    if (kept != nullptr) kept->push_back(previous_best);
  }
  return similarities;
}

double MeanRelativeDiffOracle(const std::vector<double>& step,
                              const std::vector<double>& reference) {
  double total = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < step.size(); ++i) {
    if (reference[i] == 0.0) continue;
    total += std::abs(step[i] - reference[i]) / std::abs(reference[i]);
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

size_t SelectStepOracle(const std::vector<core::PartialMiningStep>& steps,
                        double tolerance) {
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].mean_relative_diff <= tolerance) return i;
  }
  return steps.size() - 1;
}

/// The serial exam-subset strategy (no failpoint armed), over the oracle.
core::PartialMiningResult SerialExamSubsetOracle(
    const dataset::ExamLog& log, const core::PartialMiningOptions& options) {
  std::vector<double> fractions = options.fractions;
  if (fractions.back() < 1.0) fractions.push_back(1.0);
  auto schedule = transform::BuildVerticalSchedule(log, fractions);
  EXPECT_TRUE(schedule.ok());
  core::PartialMiningResult result;
  result.ks = options.ks;
  transform::Matrix full_vsm = BuildVsm(log, options.vsm);
  std::vector<std::vector<double>> similarities;
  for (const auto& subset : schedule.value()) {
    dataset::ExamLog reduced = log.FilterExamTypes(subset.mask);
    transform::Matrix reduced_vsm = BuildVsm(reduced, options.vsm);
    auto sims =
        SerialSimilarityPerKOracle(reduced_vsm, full_vsm, options, nullptr);
    EXPECT_TRUE(sims.ok());
    core::PartialMiningStep step;
    step.fraction = subset.exam_fraction;
    step.record_coverage = subset.record_coverage;
    step.overall_similarity = sims.value();
    similarities.push_back(std::move(sims).value());
    result.steps.push_back(std::move(step));
  }
  const std::vector<double>& full = similarities.back();
  for (size_t i = 0; i < result.steps.size(); ++i) {
    result.steps[i].mean_relative_diff =
        MeanRelativeDiffOracle(similarities[i], full);
  }
  result.selected_step = SelectStepOracle(result.steps, options.tolerance);
  return result;
}

/// The serial patient-subset strategy, over the oracle.
core::PartialMiningResult SerialPatientSubsetOracle(
    const dataset::ExamLog& log, const core::PartialMiningOptions& options) {
  common::Rng rng(options.kmeans.seed + 17);
  auto schedule =
      transform::BuildHorizontalSchedule(log, options.fractions, rng);
  EXPECT_TRUE(schedule.ok());
  core::PartialMiningResult result;
  result.ks = options.ks;
  std::vector<std::vector<double>> similarities;
  for (size_t s = 0; s < schedule->size(); ++s) {
    dataset::ExamLog reduced = log.FilterPatients((*schedule)[s]);
    transform::Matrix reduced_vsm = BuildVsm(reduced, options.vsm);
    auto sims = SerialSimilarityPerKOracle(reduced_vsm, reduced_vsm, options,
                                           nullptr);
    EXPECT_TRUE(sims.ok());
    core::PartialMiningStep step;
    step.fraction = options.fractions[s];
    step.record_coverage =
        static_cast<double>(reduced.num_records()) /
        static_cast<double>(log.num_records());
    step.overall_similarity = sims.value();
    step.mean_relative_diff =
        s == 0 ? 1.0
               : MeanRelativeDiffOracle(sims.value(), similarities.back());
    similarities.push_back(std::move(sims).value());
    result.steps.push_back(std::move(step));
  }
  result.selected_step = SelectStepOracle(result.steps, options.tolerance);
  return result;
}

/// The optimizer's ClusterCandidate before the sweep, verbatim.
StatusOr<cluster::Clustering> SerialClusterCandidateOracle(
    const Matrix& data, const transform::CsrMatrix* sparse, int32_t k,
    const core::OptimizerOptions& options,
    const cluster::Clustering* warm_source) {
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

/// The hint adoption of OptimizeClustering: the warm centroids
/// re-assigned against `data`.
Clustering WarmHint(const Matrix& data, const Matrix& centroids) {
  Clustering hint;
  hint.k = static_cast<int32_t>(centroids.rows());
  hint.centroids = centroids;
  hint.sse = cluster::AssignToCentroids(data, hint.centroids, hint.assignments);
  return hint;
}

/// The optimizer's evaluation order: the hint's K first.
std::vector<size_t> EvaluationOrder(const std::vector<int32_t>& ks,
                                    const Clustering* hint) {
  std::vector<size_t> order(ks.size());
  for (size_t i = 0; i < ks.size(); ++i) order[i] = i;
  if (hint != nullptr) {
    for (size_t i = 0; i < ks.size(); ++i) {
      if (ks[i] == hint->k) {
        std::rotate(order.begin(), order.begin() + i, order.begin() + i + 1);
        break;
      }
    }
  }
  return order;
}

/// The optimizer's serial Phase A (representation hoist, warm hint,
/// evaluation order, warm chain), in candidate_ks order.
std::vector<StatusOr<Clustering>> SerialPhaseAOracle(
    const Matrix& data, const core::OptimizerOptions& options) {
  const size_t num_candidates = options.candidate_ks.size();
  std::vector<StatusOr<cluster::Clustering>> clusterings(
      num_candidates, common::InternalError("not clustered"));
  transform::CsrMatrix sparse_data;
  cluster::KMeansOptions probe = options.kmeans;
  for (int32_t candidate_k : options.candidate_ks) {
    probe.k = std::max(probe.k, candidate_k);
  }
  const bool use_sparse = cluster::internal::ShouldUseSparse(data, probe);
  if (use_sparse) sparse_data = transform::CsrMatrix::FromDense(data);
  const transform::CsrMatrix* sparse = use_sparse ? &sparse_data : nullptr;
  Clustering warm_hint;
  const Clustering* warm_source = nullptr;
  if (!options.warm_centroids.empty()) {
    warm_hint = WarmHint(data, options.warm_centroids);
    warm_source = &warm_hint;
  }
  for (size_t i : EvaluationOrder(options.candidate_ks, warm_source)) {
    clusterings[i] = SerialClusterCandidateOracle(
        data, sparse, options.candidate_ks[i], options, warm_source);
    if (clusterings[i].ok()) warm_source = &*clusterings[i];
  }
  return clusterings;
}

// ---------------------------------------------------------------------
// Generated shapes and bitwise comparison.

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectSameClustering(const Clustering& actual, const Clustering& oracle,
                          const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(actual.k, oracle.k);
  EXPECT_EQ(actual.assignments, oracle.assignments);
  EXPECT_EQ(Bits(actual.sse), Bits(oracle.sse));
  EXPECT_EQ(actual.iterations, oracle.iterations);
  EXPECT_EQ(actual.converged, oracle.converged);
  ASSERT_EQ(actual.centroids.rows(), oracle.centroids.rows());
  ASSERT_EQ(actual.centroids.cols(), oracle.centroids.cols());
  EXPECT_EQ(std::memcmp(actual.centroids.data().data(),
                        oracle.centroids.data().data(),
                        oracle.centroids.data().size() * sizeof(double)),
            0);
}

void ExpectSameDoubles(const std::vector<double>& actual,
                       const std::vector<double>& oracle) {
  ASSERT_EQ(actual.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(Bits(actual[i]), Bits(oracle[i])) << "index " << i;
  }
}

/// A generated case: a non-negative matrix of the given nnz density
/// (both sides of the CSR threshold occur), a restart count in 1-4 and
/// an unsorted K list.
struct SweepCase {
  Matrix data;
  int32_t restarts = 1;
  std::vector<int32_t> ks;
  uint64_t seed = 0;
  double density = 0.0;
};

SweepCase MakeCase(uint64_t seed) {
  common::Rng rng(seed * 7717 + 3);
  SweepCase c;
  c.seed = seed;
  c.density = seed % 2 == 0 ? 0.05 : 0.5;
  const size_t rows = static_cast<size_t>(rng.UniformInt(30, 90));
  const size_t cols = static_cast<size_t>(rng.UniformInt(33, 48));
  c.data = Matrix(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    // A few duplicate rows exercise ties.
    if (r > 0 && test::Bernoulli(rng, 0.05)) {
      for (size_t j = 0; j < cols; ++j) c.data.At(r, j) = c.data.At(r - 1, j);
      continue;
    }
    for (size_t j = 0; j < cols; ++j) {
      if (test::Bernoulli(rng, c.density)) {
        c.data.At(r, j) = rng.UniformDouble(0.1, 1.0);
      }
    }
  }
  c.restarts = static_cast<int32_t>(1 + seed % 4);
  c.ks = {2, 3, 4, 5, 7, 9};
  rng.Shuffle(c.ks);
  c.ks.resize(static_cast<size_t>(rng.UniformInt(3, 6)));
  return c;
}

constexpr uint64_t kCases = 12;

cluster::KMeansOptions CaseKMeans(uint64_t seed) {
  cluster::KMeansOptions kmeans;
  kmeans.max_iterations = 30;
  kmeans.seed = seed + 5;
  return kmeans;
}

TEST(SweepOracleTest, PartialMiningSweepMatchesSerialLoop) {
  size_t sparse_cases = 0;
  for (uint64_t seed = 0; seed < kCases; ++seed) {
    SweepCase c = MakeCase(seed);
    SCOPED_TRACE(testing::Message() << "seed " << seed << " density "
                                    << c.density << " restarts "
                                    << c.restarts);
    // A K above the row count is clamped by both paths.
    c.ks.insert(c.ks.begin() + 1, static_cast<int32_t>(c.data.rows()) + 4);
    core::PartialMiningOptions options;
    options.ks = c.ks;
    options.restarts = c.restarts;
    options.kmeans = CaseKMeans(seed);
    std::vector<Clustering> oracle_kept;
    auto oracle = SerialSimilarityPerKOracle(c.data, c.data, options,
                                             &oracle_kept);
    ASSERT_TRUE(oracle.ok());

    cluster::SweepOptions sweep;
    sweep.kmeans = options.kmeans;
    sweep.restarts = options.restarts;
    sweep.seed_base = options.kmeans.seed;
    sweep.k_stride = 7919;
    sweep.restart_stride = 104729;
    const int64_t sparse_before = common::MetricsRegistry::Default()
                                      .GetCounter("cluster/sparse_sweeps")
                                      .value();
    std::vector<cluster::SweepResult> swept =
        cluster::SweepKs(c.data, options.ks, sweep);
    if (common::MetricsRegistry::Default()
            .GetCounter("cluster/sparse_sweeps")
            .value() > sparse_before) {
      ++sparse_cases;
    }
    ASSERT_EQ(swept.size(), oracle_kept.size());
    std::vector<double> similarities;
    for (size_t i = 0; i < swept.size(); ++i) {
      ASSERT_TRUE(swept[i].best.ok());
      EXPECT_EQ(swept[i].warm_started, i > 0);
      ExpectSameClustering(*swept[i].best, oracle_kept[i],
                           "K " + std::to_string(c.ks[i]));
      similarities.push_back(cluster::OverallSimilarity(
          c.data, swept[i].best->assignments, swept[i].best->k));
    }
    ExpectSameDoubles(similarities, *oracle);
  }
  // Both sides of the representation decision were exercised.
  EXPECT_GT(sparse_cases, 0u);
  EXPECT_LT(sparse_cases, static_cast<size_t>(kCases));
}

TEST(SweepOracleTest, OptimizerSweepMatchesSerialPhaseA) {
  for (uint64_t seed = 0; seed < kCases; ++seed) {
    SweepCase c = MakeCase(seed);
    SCOPED_TRACE(testing::Message() << "seed " << seed << " density "
                                    << c.density << " restarts "
                                    << c.restarts);
    core::OptimizerOptions options;
    options.candidate_ks = c.ks;
    options.restarts = c.restarts;
    options.kmeans = CaseKMeans(seed);
    options.seed = seed + 29;
    options.cv_folds = 2;
    // Every other case carries a cross-run warm hint whose K is not the
    // first candidate, so the evaluation order is rotated.
    if (seed % 2 == 1) {
      const size_t hint_index = 1 + seed % (c.ks.size() - 1);
      const size_t hint_k = static_cast<size_t>(c.ks[hint_index]);
      Matrix hint(hint_k, c.data.cols());
      for (size_t r = 0; r < hint_k; ++r) {
        std::span<const double> src = c.data.Row(r * 3 % c.data.rows());
        std::copy(src.begin(), src.end(), hint.Row(r).begin());
      }
      options.warm_centroids = hint;
    }
    std::vector<StatusOr<Clustering>> oracle =
        SerialPhaseAOracle(c.data, options);

    Clustering hint;
    cluster::SweepOptions sweep;
    sweep.kmeans = options.kmeans;
    sweep.restarts = options.restarts;
    sweep.seed_base = options.seed;
    sweep.k_stride = 104729;
    sweep.restart_stride = 15485863;
    if (!options.warm_centroids.empty()) {
      hint = WarmHint(c.data, options.warm_centroids);
      sweep.warm_source = &hint;
    }
    const std::vector<size_t> order =
        EvaluationOrder(options.candidate_ks, sweep.warm_source);
    std::vector<int32_t> ordered_ks;
    for (size_t i : order) ordered_ks.push_back(options.candidate_ks[i]);
    std::vector<cluster::SweepResult> swept =
        cluster::SweepKs(c.data, ordered_ks, sweep);
    ASSERT_EQ(swept.size(), order.size());
    for (size_t j = 0; j < order.size(); ++j) {
      ASSERT_TRUE(oracle[order[j]].ok());
      ASSERT_TRUE(swept[j].best.ok());
      EXPECT_EQ(swept[j].warm_started,
                j > 0 || !options.warm_centroids.empty());
      ExpectSameClustering(*swept[j].best, *oracle[order[j]],
                           "K " + std::to_string(ordered_ks[j]));
    }

    // End to end: every evaluated candidate carries the oracle's
    // clustering at its canonical index.
    auto optimized = core::OptimizeClustering(c.data, options);
    ASSERT_TRUE(optimized.ok());
    for (size_t i = 0; i < optimized->candidates.size(); ++i) {
      const core::CandidateEvaluation& candidate = optimized->candidates[i];
      EXPECT_EQ(candidate.k, options.candidate_ks[i]);
      if (candidate.skipped()) continue;
      ExpectSameClustering(candidate.clustering, *oracle[i],
                           "optimizer K " + std::to_string(candidate.k));
    }
  }
}

void ExpectSameResult(const core::PartialMiningResult& actual,
                      const core::PartialMiningResult& oracle) {
  EXPECT_EQ(actual.ks, oracle.ks);
  EXPECT_EQ(actual.selected_step, oracle.selected_step);
  ASSERT_EQ(actual.steps.size(), oracle.steps.size());
  for (size_t s = 0; s < oracle.steps.size(); ++s) {
    SCOPED_TRACE(testing::Message() << "step " << s);
    EXPECT_EQ(Bits(actual.steps[s].fraction), Bits(oracle.steps[s].fraction));
    EXPECT_EQ(Bits(actual.steps[s].record_coverage),
              Bits(oracle.steps[s].record_coverage));
    EXPECT_EQ(Bits(actual.steps[s].mean_relative_diff),
              Bits(oracle.steps[s].mean_relative_diff));
    ExpectSameDoubles(actual.steps[s].overall_similarity,
                      oracle.steps[s].overall_similarity);
  }
}

core::PartialMiningOptions MiningOptions(uint64_t seed) {
  core::PartialMiningOptions options;
  options.fractions = {0.25, 0.5, 0.8};
  options.ks = {5, 3, 4};
  options.restarts = static_cast<int32_t>(1 + seed % 4);
  options.kmeans.max_iterations = 20;
  options.kmeans.seed = seed + 11;
  return options;
}

dataset::ExamLog MiningLog(uint64_t seed) {
  dataset::CohortConfig config = dataset::TestScaleConfig();
  config.num_patients = 120 + static_cast<int32_t>(seed) * 20;
  config.seed = 100 + seed;
  auto cohort = dataset::SyntheticCohortGenerator(config).Generate();
  EXPECT_TRUE(cohort.ok());
  return std::move(cohort).value().log;
}

TEST(SweepOracleTest, ExamSubsetMiningMatchesSerialLoop) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    dataset::ExamLog log = MiningLog(seed);
    const core::PartialMiningOptions options = MiningOptions(seed);
    auto result = core::RunExamSubsetPartialMining(log, options);
    ASSERT_TRUE(result.ok());
    ExpectSameResult(*result, SerialExamSubsetOracle(log, options));
  }
}

TEST(SweepOracleTest, PatientSubsetMiningMatchesSerialLoop) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    dataset::ExamLog log = MiningLog(seed);
    core::PartialMiningOptions options = MiningOptions(seed);
    // The first step's sample is smaller than the largest K.
    options.fractions = {0.02, 0.5, 1.0};
    options.ks = {5, 3, 40};
    auto result = core::RunPatientSubsetPartialMining(log, options);
    ASSERT_TRUE(result.ok());
    ExpectSameResult(*result, SerialPatientSubsetOracle(log, options));
  }
}

TEST(SweepTest, FirstFailureInRunOrderIsTheKsStatus) {
  SweepCase c = MakeCase(1);
  cluster::SweepOptions sweep;
  sweep.kmeans = CaseKMeans(1);
  sweep.restarts = 2;
  // K = 0 is rejected by RunKMeans. The K after it still clusters,
  // warm-started from the last K that succeeded.
  const std::vector<int32_t> ks = {3, 0, 4};
  std::vector<cluster::SweepResult> swept = cluster::SweepKs(c.data, ks, sweep);
  ASSERT_EQ(swept.size(), 3u);
  ASSERT_TRUE(swept[0].best.ok());
  EXPECT_FALSE(swept[0].warm_started);
  EXPECT_EQ(swept[1].best.status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(swept[1].warm_started);
  ASSERT_TRUE(swept[2].best.ok());
  EXPECT_TRUE(swept[2].warm_started);
  EXPECT_EQ(swept[2].best->k, 4);
}

}  // namespace
}  // namespace adahealth
