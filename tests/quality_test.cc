#include "cluster/quality.h"

#include <gtest/gtest.h>
#include "cluster/kmeans.h"
#include "test_util.h"

namespace adahealth {
namespace cluster {
namespace {

using test::MakeBlobs;
using transform::Matrix;

TEST(OverallSimilarityTest, ClosedFormMatchesExactPairwise) {
  // The O(N) closed form must equal the O(N^2) definition.
  test::Blobs blobs = MakeBlobs(
      {{1.0, 0.2}, {0.1, 1.5}, {2.0, 2.0}}, 15, 0.4, 33);
  KMeansOptions options;
  options.k = 3;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  double fast = OverallSimilarity(blobs.points, clustering->assignments, 3);
  double exact =
      OverallSimilarityExact(blobs.points, clustering->assignments, 3);
  EXPECT_NEAR(fast, exact, 1e-9);
}

TEST(OverallSimilarityTest, PerfectCohesionIsOne) {
  // All members of each cluster are identical -> OS = 1.
  Matrix points(4, 2);
  points.At(0, 0) = 1.0;
  points.At(1, 0) = 1.0;
  points.At(2, 1) = 2.0;
  points.At(3, 1) = 2.0;
  std::vector<int32_t> assignments{0, 0, 1, 1};
  EXPECT_NEAR(OverallSimilarity(points, assignments, 2), 1.0, 1e-12);
}

TEST(OverallSimilarityTest, OrthogonalMembersLowerScore) {
  // One cluster holding two orthogonal unit vectors: cohesion = 0.5
  // (self-pairs only).
  Matrix points(2, 2);
  points.At(0, 0) = 1.0;
  points.At(1, 1) = 1.0;
  std::vector<int32_t> assignments{0, 0};
  EXPECT_NEAR(OverallSimilarity(points, assignments, 1), 0.5, 1e-12);
}

TEST(OverallSimilarityTest, TightClusteringScoresHigherThanRandom) {
  test::Blobs blobs = MakeBlobs(
      {{5.0, 0.0, 0.0}, {0.0, 5.0, 0.0}, {0.0, 0.0, 5.0}}, 30, 0.3, 35);
  KMeansOptions options;
  options.k = 3;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  double good = OverallSimilarity(blobs.points, clustering->assignments, 3);
  // Random assignment.
  common::Rng rng(37);
  std::vector<int32_t> random(blobs.points.rows());
  for (auto& a : random) a = static_cast<int32_t>(rng.UniformUint64(3));
  double bad = OverallSimilarity(blobs.points, random, 3);
  EXPECT_GT(good, bad + 0.1);
}

TEST(OverallSimilarityTest, ZeroVectorsContributeNothing) {
  Matrix points(3, 2);
  points.At(0, 0) = 1.0;
  points.At(1, 0) = 1.0;
  // Row 2 is all zero.
  std::vector<int32_t> assignments{0, 0, 0};
  // Normalized sum = (2,0)/... cohesion = ||(2,0)||^2 / 9 = 4/9; the
  // exact pairwise version agrees because cos with zero vector is 0.
  double fast = OverallSimilarity(points, assignments, 1);
  double exact = OverallSimilarityExact(points, assignments, 1);
  EXPECT_NEAR(fast, exact, 1e-12);
}

}  // namespace
}  // namespace cluster
}  // namespace adahealth
