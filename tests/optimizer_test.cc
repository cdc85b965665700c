#include "core/optimizer.h"

#include <vector>

#include <gtest/gtest.h>
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "dataset/synthetic_cohort.h"
#include "test_util.h"
#include "transform/vsm.h"

namespace adahealth {
namespace core {
namespace {

using transform::Matrix;

OptimizerOptions FastOptions() {
  OptimizerOptions options;
  options.candidate_ks = {2, 3, 4, 6};
  options.cv_folds = 5;
  options.kmeans.max_iterations = 40;
  options.seed = 3;
  return options;
}

TEST(OptimizerTest, EvaluatesEveryCandidate) {
  test::Blobs blobs = test::MakeBlobs(
      {{0.0, 0.0}, {8.0, 0.0}, {0.0, 8.0}}, 40, 0.6, 71);
  auto result = OptimizeClustering(blobs.points, FastOptions());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 4u);
  for (size_t i = 0; i < result->candidates.size(); ++i) {
    const CandidateEvaluation& candidate = result->candidates[i];
    EXPECT_EQ(candidate.k, FastOptions().candidate_ks[i]);
    EXPECT_GT(candidate.sse, 0.0);
    EXPECT_GT(candidate.accuracy, 0.0);
    EXPECT_GE(candidate.avg_precision, 0.0);
    EXPECT_GE(candidate.avg_recall, 0.0);
    EXPECT_EQ(candidate.clustering.k, candidate.k);
    EXPECT_EQ(candidate.clustering.assignments.size(), 120u);
  }
}

TEST(OptimizerTest, SseDecreasesInK) {
  test::Blobs blobs = test::MakeBlobs(
      {{0.0, 0.0}, {8.0, 0.0}, {0.0, 8.0}}, 40, 1.0, 73);
  auto result = OptimizeClustering(blobs.points, FastOptions());
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->candidates.size(); ++i) {
    EXPECT_LE(result->candidates[i].sse,
              result->candidates[i - 1].sse * 1.001);
  }
}

TEST(OptimizerTest, PrefersLowKOverOverSegmentationOnBlobs) {
  // Three well-separated blobs. Under-segmentation (K = 2) merges
  // blobs but keeps boundaries in empty space, so its robustness ties
  // with K = 3 — both legitimately beat over-segmentation, whose
  // k-means cuts split dense regions and are unstable to re-learn.
  test::Blobs blobs = test::MakeBlobs(
      {{0.0, 0.0}, {12.0, 0.0}, {0.0, 12.0}}, 50, 0.5, 75);
  OptimizerOptions options = FastOptions();
  options.candidate_ks = {2, 3, 6, 10};
  auto result = OptimizeClustering(blobs.points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->best_k(), 3);
  double composite3 = result->candidates[1].composite;
  double composite10 = result->candidates[3].composite;
  EXPECT_GT(composite3, composite10);
}

TEST(OptimizerTest, BestIndexMatchesComposite) {
  test::Blobs blobs = test::MakeBlobs(
      {{0.0, 0.0}, {9.0, 0.0}}, 40, 0.8, 77);
  auto result = OptimizeClustering(blobs.points, FastOptions());
  ASSERT_TRUE(result.ok());
  double best = result->best().composite;
  for (const auto& candidate : result->candidates) {
    EXPECT_LE(candidate.composite, best + 1e-12);
  }
}

TEST(OptimizerTest, SingleThreadAndParallelAgree) {
  // Cross-validation fans out on ThreadPool::Shared(). Sweeps launched
  // from inside the pool's own workers nest their fan-out, and with
  // the pool saturated an inner fan-out runs on the calling worker
  // alone; every schedule must give the same result as a direct call.
  test::Blobs blobs = test::MakeBlobs(
      {{0.0, 0.0}, {7.0, 7.0}}, 30, 0.7, 79);
  auto a = OptimizeClustering(blobs.points, FastOptions());
  ASSERT_TRUE(a.ok());
  constexpr size_t kNested = 3;
  std::vector<common::StatusOr<OptimizerResult>> nested(
      kNested, common::InternalError("not run"));
  common::ParallelFor(common::ThreadPool::Shared(), 0, kNested,
                      [&](size_t i) {
                        nested[i] =
                            OptimizeClustering(blobs.points, FastOptions());
                      },
                      1);
  for (const common::StatusOr<OptimizerResult>& b : nested) {
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->candidates.size(), b->candidates.size());
    for (size_t i = 0; i < a->candidates.size(); ++i) {
      EXPECT_DOUBLE_EQ(a->candidates[i].sse, b->candidates[i].sse);
      EXPECT_DOUBLE_EQ(a->candidates[i].accuracy,
                       b->candidates[i].accuracy);
    }
    EXPECT_EQ(a->best_index, b->best_index);
  }
}

TEST(OptimizerTest, WarmStartsEveryCandidateAfterTheFirst) {
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  test::Blobs blobs = test::MakeBlobs(
      {{0.0, 0.0}, {8.0, 0.0}, {0.0, 8.0}}, 40, 0.6, 87);
  OptimizerOptions options = FastOptions();
  auto result = OptimizeClustering(blobs.points, options);
  ASSERT_TRUE(result.ok());
  // One warm start per candidate after the first, regardless of the
  // restart count.
  EXPECT_EQ(metrics.GetCounter("optimizer/warm_starts").value(),
            static_cast<int64_t>(options.candidate_ks.size()) - 1);
  EXPECT_EQ(metrics.GetCounter("optimizer/restarts").value(),
            static_cast<int64_t>(options.candidate_ks.size()) *
                options.restarts);
}

TEST(OptimizerTest, NaiveBayesAssessorAlsoWorks) {
  test::Blobs blobs = test::MakeBlobs(
      {{0.0, 0.0}, {10.0, 10.0}}, 40, 0.6, 81);
  OptimizerOptions options = FastOptions();
  options.model = RobustnessModel::kNaiveBayes;
  options.candidate_ks = {2, 4};
  auto result = OptimizeClustering(blobs.points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates.size(), 2u);
  EXPECT_GT(result->candidates[0].accuracy, 0.9);
}

TEST(OptimizerTest, RecoversProfileCountOnSyntheticCohort) {
  // The paper's story in miniature: the cohort has 4 latent profiles;
  // the optimizer's composite metric should peak at K near 4.
  auto cohort = dataset::SyntheticCohortGenerator(
                    dataset::TestScaleConfig())
                    .Generate();
  ASSERT_TRUE(cohort.ok());
  Matrix vsm = transform::BuildVsm(cohort->log);
  OptimizerOptions options = FastOptions();
  options.candidate_ks = {2, 4, 8, 12};
  auto result = OptimizeClustering(vsm, options);
  ASSERT_TRUE(result.ok());
  // Composite at K=4 must beat heavy over-segmentation at K=12.
  double composite4 = result->candidates[1].composite;
  double composite12 = result->candidates[3].composite;
  EXPECT_GT(composite4, composite12);
}

// Two tight far-apart blobs plus a pair of points midway between
// them. At K = 2 the pair is absorbed by a blob and both clusters are
// CV-sized; at K = 3 the pair becomes its own 2-member cluster, which
// cannot be stratified into 5 CV folds.
test::Blobs BlobsWithTinyMiddleCluster() {
  test::Blobs blobs = test::MakeBlobs(
      {{0.0, 0.0}, {20.0, 0.0}}, 15, 0.3, 85);
  transform::Matrix points(blobs.points.rows() + 2, 2);
  for (size_t i = 0; i < blobs.points.rows(); ++i) {
    points.At(i, 0) = blobs.points.At(i, 0);
    points.At(i, 1) = blobs.points.At(i, 1);
  }
  points.At(blobs.points.rows(), 0) = 10.0;
  points.At(blobs.points.rows() + 1, 0) = 10.1;
  blobs.points = std::move(points);
  blobs.labels.push_back(2);
  blobs.labels.push_back(2);
  return blobs;
}

TEST(OptimizerTest, DegenerateCandidateIsSkippedNotFatal) {
  test::Blobs blobs = BlobsWithTinyMiddleCluster();
  OptimizerOptions options = FastOptions();
  options.candidate_ks = {2, 3};
  options.cv_folds = 5;
  auto result = OptimizeClustering(blobs.points, options);
  // Pre-fix, the K = 3 failure aborted the whole sweep.
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 2u);
  EXPECT_FALSE(result->candidates[0].skipped());
  EXPECT_TRUE(result->candidates[1].skipped());
  EXPECT_EQ(result->candidates[1].k, 3);
  EXPECT_FALSE(result->candidates[1].status.message().empty());
  EXPECT_EQ(result->num_skipped(), 1u);
  // The best candidate is the surviving one.
  EXPECT_EQ(result->best_k(), 2);
  EXPECT_GT(result->best().accuracy, 0.9);
}

TEST(OptimizerTest, ErrorsOnlyWhenEveryCandidateFails) {
  test::Blobs blobs = BlobsWithTinyMiddleCluster();
  OptimizerOptions options = FastOptions();
  options.candidate_ks = {3};
  options.cv_folds = 5;
  auto result = OptimizeClustering(blobs.points, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(OptimizerTest, RejectsBadOptions) {
  test::Blobs blobs = test::MakeBlobs({{0.0}}, 10, 0.5, 83);
  OptimizerOptions options = FastOptions();
  options.candidate_ks = {};
  EXPECT_FALSE(OptimizeClustering(blobs.points, options).ok());
  options = FastOptions();
  options.candidate_ks = {1};
  EXPECT_FALSE(OptimizeClustering(blobs.points, options).ok());
  options = FastOptions();
  options.candidate_ks = {50};  // More than the points.
  EXPECT_FALSE(OptimizeClustering(blobs.points, options).ok());
  options = FastOptions();
  options.cv_folds = 1;
  EXPECT_FALSE(OptimizeClustering(blobs.points, options).ok());
  EXPECT_FALSE(OptimizeClustering(Matrix(), FastOptions()).ok());
}

}  // namespace
}  // namespace core
}  // namespace adahealth
