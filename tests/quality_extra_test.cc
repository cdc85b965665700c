// Additional clustering-quality properties: the Calinski–Harabasz
// index and cross-index consistency sweeps (parameterized).
#include <gtest/gtest.h>
#include "cluster/kmeans.h"
#include "cluster/quality.h"
#include "test_util.h"

namespace adahealth {
namespace cluster {
namespace {

using transform::Matrix;

TEST(CalinskiHarabaszTest, HigherForBetterSeparation) {
  test::Blobs tight = test::MakeBlobs({{0.0, 0.0}, {20.0, 0.0}}, 40, 0.5,
                                      131);
  test::Blobs loose = test::MakeBlobs({{0.0, 0.0}, {2.0, 0.0}}, 40, 1.5,
                                      131);
  KMeansOptions options;
  options.k = 2;
  auto tight_clustering = RunKMeans(tight.points, options);
  auto loose_clustering = RunKMeans(loose.points, options);
  ASSERT_TRUE(tight_clustering.ok());
  ASSERT_TRUE(loose_clustering.ok());
  EXPECT_GT(CalinskiHarabaszIndex(tight.points,
                                  tight_clustering->assignments, 2),
            CalinskiHarabaszIndex(loose.points,
                                  loose_clustering->assignments, 2));
}

TEST(CalinskiHarabaszTest, TrueLabelingBeatsRandom) {
  test::Blobs blobs = test::MakeBlobs({{0.0}, {10.0}, {20.0}}, 30, 0.5,
                                      133);
  common::Rng rng(135);
  std::vector<int32_t> random(blobs.points.rows());
  for (auto& a : random) a = static_cast<int32_t>(rng.UniformUint64(3));
  // Random assignment could leave a cluster empty; regenerate until not
  // (deterministic seed, converges immediately in practice).
  while (true) {
    std::vector<int64_t> sizes(3, 0);
    for (int32_t a : random) ++sizes[static_cast<size_t>(a)];
    bool ok = true;
    for (int64_t s : sizes) ok &= s > 0;
    if (ok) break;
    for (auto& a : random) a = static_cast<int32_t>(rng.UniformUint64(3));
  }
  EXPECT_GT(CalinskiHarabaszIndex(blobs.points, blobs.labels, 3),
            10.0 * CalinskiHarabaszIndex(blobs.points, random, 3));
}

/// Property sweep: on well-separated blobs of every configuration, the
/// k-means clustering at the true K must score better than a random
/// labeling on every index (SSE lower, OS/silhouette/CH higher, DB
/// lower).
struct IndexSweepCase {
  int32_t k;
  size_t per_cluster;
  double spread;
  uint64_t seed;
};

// Without a printer gtest dumps the raw bytes, including the padding after
// `k`, and that dump becomes the discovered CTest name, which then changes
// from run to run. Print the fields instead so the name is stable.
void PrintTo(const IndexSweepCase& c, std::ostream* os) {
  *os << "k=" << c.k << " per_cluster=" << c.per_cluster
      << " spread=" << c.spread << " seed=" << c.seed;
}

class QualityIndexSweep : public testing::TestWithParam<IndexSweepCase> {};

TEST_P(QualityIndexSweep, AllIndicesPreferTrueStructure) {
  const IndexSweepCase& param = GetParam();
  std::vector<std::vector<double>> centers;
  for (int32_t c = 0; c < param.k; ++c) {
    centers.push_back({12.0 * c, 12.0 * ((c * 7) % param.k)});
  }
  test::Blobs blobs =
      test::MakeBlobs(centers, param.per_cluster, param.spread, param.seed);
  KMeansOptions options;
  options.k = param.k;
  options.seed = param.seed + 1;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());

  common::Rng rng(param.seed + 2);
  std::vector<int32_t> random(blobs.points.rows());
  while (true) {
    for (auto& a : random) {
      a = static_cast<int32_t>(
          rng.UniformUint64(static_cast<uint64_t>(param.k)));
    }
    std::vector<int64_t> sizes(static_cast<size_t>(param.k), 0);
    for (int32_t a : random) ++sizes[static_cast<size_t>(a)];
    bool ok = true;
    for (int64_t s : sizes) ok &= s > 0;
    if (ok) break;
  }

  // Centroids of the random labeling for its SSE.
  Matrix random_centroids(static_cast<size_t>(param.k),
                          blobs.points.cols(), 0.0);
  RecomputeCentroids(blobs.points, random, random_centroids);

  EXPECT_LT(clustering->sse,
            SumSquaredError(blobs.points, random, random_centroids));
  EXPECT_GT(OverallSimilarity(blobs.points, clustering->assignments,
                              param.k),
            OverallSimilarity(blobs.points, random, param.k));
  EXPECT_GT(SilhouetteScore(blobs.points, clustering->assignments,
                            param.k),
            SilhouetteScore(blobs.points, random, param.k));
  EXPECT_GT(CalinskiHarabaszIndex(blobs.points, clustering->assignments,
                                  param.k),
            CalinskiHarabaszIndex(blobs.points, random, param.k));
  EXPECT_LT(DaviesBouldinIndex(blobs.points, clustering->assignments,
                               param.k),
            DaviesBouldinIndex(blobs.points, random, param.k));
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, QualityIndexSweep,
    testing::Values(IndexSweepCase{2, 30, 0.5, 1},
                    IndexSweepCase{3, 25, 0.8, 2},
                    IndexSweepCase{4, 20, 0.6, 3},
                    IndexSweepCase{5, 15, 0.7, 4},
                    IndexSweepCase{8, 12, 0.5, 5}));

TEST(CalinskiHarabaszTest, ZeroWithinDispersion) {
  // Two clusters of identical points each: within = 0 -> define 0.
  Matrix points(4, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 0.0;
  points.At(2, 0) = 5.0;
  points.At(3, 0) = 5.0;
  std::vector<int32_t> labels{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(CalinskiHarabaszIndex(points, labels, 2), 0.0);
}

}  // namespace
}  // namespace cluster
}  // namespace adahealth
