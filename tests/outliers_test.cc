#include "cluster/outliers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>
#include "test_util.h"

namespace adahealth {
namespace cluster {
namespace {

using transform::Matrix;

// Per-row mean Euclidean distance to the `k` nearest other rows (brute
// force, O(n^2 d)), the k-NN distance outlier score. Requires
// 1 <= k < data.rows().
common::StatusOr<std::vector<double>> KnnOutlierScores(const Matrix& data,
                                                       int32_t k) {
  if (data.rows() < 2) {
    return common::InvalidArgumentError(
        "k-NN outlier scoring needs at least two rows");
  }
  if (k < 1 || static_cast<size_t>(k) >= data.rows()) {
    return common::InvalidArgumentError("k must be in [1, rows)");
  }
  const size_t n = data.rows();
  std::vector<double> scores(n, 0.0);
  std::vector<double> distances(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      distances[j] = j == i ? std::numeric_limits<double>::max()
                            : std::sqrt(transform::SquaredDistance(
                                  data.Row(i), data.Row(j)));
    }
    std::nth_element(distances.begin(), distances.begin() + (k - 1),
                     distances.end());
    double sum =
        std::accumulate(distances.begin(), distances.begin() + k, 0.0);
    scores[i] = sum / static_cast<double>(k);
  }
  return scores;
}

/// A blob of 40 points around the origin plus one far-away point.
struct PlantedOutlier {
  Matrix points;
  size_t outlier_row;
};

PlantedOutlier MakePlanted() {
  test::Blobs blobs = test::MakeBlobs({{0.0, 0.0}}, 40, 0.5, 91);
  PlantedOutlier planted{Matrix(41, 2), 40};
  for (size_t i = 0; i < 40; ++i) {
    planted.points.At(i, 0) = blobs.points.At(i, 0);
    planted.points.At(i, 1) = blobs.points.At(i, 1);
  }
  planted.points.At(40, 0) = 25.0;
  planted.points.At(40, 1) = -25.0;
  return planted;
}

TEST(CentroidOutlierTest, PlantedOutlierScoresHighest) {
  PlantedOutlier planted = MakePlanted();
  KMeansOptions options;
  options.k = 1;
  auto clustering = RunKMeans(planted.points, options);
  ASSERT_TRUE(clustering.ok());
  auto scores = CentroidOutlierScores(planted.points, clustering.value());
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(TopOutliers(scores.value(), 1)[0], planted.outlier_row);
  EXPECT_GT((*scores)[planted.outlier_row], 3.0);
}

TEST(CentroidOutlierTest, TypicalMembersScoreNearOne) {
  test::Blobs blobs = test::MakeBlobs({{0.0}, {10.0}}, 50, 0.5, 93);
  KMeansOptions options;
  options.k = 2;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  auto scores = CentroidOutlierScores(blobs.points, clustering.value());
  ASSERT_TRUE(scores.ok());
  double mean = 0.0;
  for (double s : scores.value()) mean += s;
  mean /= static_cast<double>(scores->size());
  EXPECT_NEAR(mean, 1.0, 0.05);
}

TEST(CentroidOutlierTest, RejectsMismatchedShapes) {
  test::Blobs blobs = test::MakeBlobs({{0.0}}, 10, 0.5, 95);
  KMeansOptions options;
  options.k = 1;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  Matrix wrong(5, 1);
  EXPECT_FALSE(CentroidOutlierScores(wrong, clustering.value()).ok());
}

TEST(KnnOutlierTest, PlantedOutlierScoresHighest) {
  PlantedOutlier planted = MakePlanted();
  auto scores = KnnOutlierScores(planted.points, 5);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(TopOutliers(scores.value(), 1)[0], planted.outlier_row);
}

TEST(KnnOutlierTest, DenserPointsScoreLower) {
  // Two points at distance 1 from each other, a third far away.
  Matrix points(3, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 1.0;
  points.At(2, 0) = 100.0;
  auto scores = KnnOutlierScores(points, 1);
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ((*scores)[0], 1.0);
  EXPECT_DOUBLE_EQ((*scores)[1], 1.0);
  EXPECT_DOUBLE_EQ((*scores)[2], 99.0);
}

TEST(KnnOutlierTest, RejectsBadK) {
  Matrix points(5, 1, 1.0);
  EXPECT_FALSE(KnnOutlierScores(points, 0).ok());
  EXPECT_FALSE(KnnOutlierScores(points, 5).ok());
  Matrix single(1, 1, 1.0);
  EXPECT_FALSE(KnnOutlierScores(single, 1).ok());
}

TEST(TopOutliersTest, OrderAndTruncation) {
  std::vector<double> scores{0.5, 3.0, 1.0, 3.0, 2.0};
  std::vector<size_t> top = TopOutliers(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // Tie between 1 and 3 -> lower index first.
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 4u);
  EXPECT_EQ(TopOutliers(scores, 99).size(), scores.size());
}

}  // namespace
}  // namespace cluster
}  // namespace adahealth
