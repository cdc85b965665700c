#include "cluster/kmeans.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>

#include <gtest/gtest.h>
#include "common/metrics.h"
#include "test_util.h"
#include "transform/simd_kernels.h"
#include "transform/sparse_matrix.h"

namespace adahealth {
namespace cluster {
namespace {

using test::MakeBlobs;
using test::RandIndex;
using transform::CsrMatrix;
using transform::Matrix;

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  test::Blobs blobs = MakeBlobs(
      {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}}, 50, 0.5, 1);
  KMeansOptions options;
  options.k = 3;
  options.seed = 3;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  EXPECT_TRUE(clustering->converged);
  EXPECT_GT(RandIndex(clustering->assignments, blobs.labels), 0.99);
}

TEST(KMeansTest, SseDecreasesWithMoreClusters) {
  test::Blobs blobs = MakeBlobs(
      {{0.0, 0.0}, {8.0, 0.0}, {0.0, 8.0}, {8.0, 8.0}}, 40, 1.0, 5);
  double previous_sse = 1e300;
  for (int32_t k : {2, 4, 8, 16}) {
    KMeansOptions options;
    options.k = k;
    options.seed = 7;
    auto clustering = RunKMeans(blobs.points, options);
    ASSERT_TRUE(clustering.ok());
    EXPECT_LT(clustering->sse, previous_sse);
    previous_sse = clustering->sse;
  }
}

TEST(KMeansTest, AssignmentsConsistentWithCentroids) {
  test::Blobs blobs = MakeBlobs({{0.0}, {5.0}}, 30, 0.3, 9);
  KMeansOptions options;
  options.k = 2;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  // Every point is assigned to its genuinely closest centroid.
  for (size_t i = 0; i < blobs.points.rows(); ++i) {
    double assigned = transform::SquaredDistance(
        blobs.points.Row(i),
        clustering->centroids.Row(
            static_cast<size_t>(clustering->assignments[i])));
    for (size_t c = 0; c < clustering->centroids.rows(); ++c) {
      EXPECT_LE(assigned, transform::SquaredDistance(
                              blobs.points.Row(i),
                              clustering->centroids.Row(c)) +
                              1e-9);
    }
  }
}

TEST(KMeansTest, SseMatchesAssignments) {
  test::Blobs blobs = MakeBlobs({{0.0}, {4.0}}, 25, 0.4, 11);
  KMeansOptions options;
  options.k = 2;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  double sse = 0.0;
  for (size_t i = 0; i < blobs.points.rows(); ++i) {
    sse += transform::SquaredDistance(
        blobs.points.Row(i),
        clustering->centroids.Row(
            static_cast<size_t>(clustering->assignments[i])));
  }
  EXPECT_NEAR(sse, clustering->sse, 1e-9);
}

TEST(KMeansTest, KEqualsOneGivesGlobalMean) {
  test::Blobs blobs = MakeBlobs({{1.0, 2.0}}, 40, 1.0, 13);
  KMeansOptions options;
  options.k = 1;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  std::vector<double> means = blobs.points.ColumnMeans();
  EXPECT_NEAR(clustering->centroids.At(0, 0), means[0], 1e-9);
  EXPECT_NEAR(clustering->centroids.At(0, 1), means[1], 1e-9);
}

TEST(KMeansTest, KEqualsNPerfectFit) {
  Matrix points(4, 1);
  for (size_t i = 0; i < 4; ++i) points.At(i, 0) = static_cast<double>(i * 10);
  KMeansOptions options;
  options.k = 4;
  auto clustering = RunKMeans(points, options);
  ASSERT_TRUE(clustering.ok());
  EXPECT_NEAR(clustering->sse, 0.0, 1e-12);
  std::set<int32_t> distinct(clustering->assignments.begin(),
                             clustering->assignments.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(KMeansTest, DeterministicForSeed) {
  test::Blobs blobs = MakeBlobs({{0.0}, {5.0}}, 30, 0.5, 15);
  KMeansOptions options;
  options.k = 2;
  options.seed = 99;
  auto a = RunKMeans(blobs.points, options);
  auto b = RunKMeans(blobs.points, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  EXPECT_DOUBLE_EQ(a->sse, b->sse);
}

TEST(KMeansTest, RandomInitAlsoConverges) {
  test::Blobs blobs = MakeBlobs({{0.0, 0.0}, {10.0, 10.0}}, 40, 0.5, 17);
  KMeansOptions options;
  options.k = 2;
  options.init = KMeansInit::kRandom;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  EXPECT_GT(RandIndex(clustering->assignments, blobs.labels), 0.99);
}

TEST(KMeansTest, NoEmptyClustersEvenWithDuplicatePoints) {
  Matrix points(10, 1, 3.0);  // All identical.
  KMeansOptions options;
  options.k = 3;
  auto clustering = RunKMeans(points, options);
  ASSERT_TRUE(clustering.ok());
  // SSE must be 0; assignments all valid.
  EXPECT_NEAR(clustering->sse, 0.0, 1e-12);
  for (int32_t a : clustering->assignments) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 3);
  }
}

TEST(KMeansTest, InvalidArgumentsRejected) {
  Matrix points(5, 2, 1.0);
  KMeansOptions options;
  options.k = 0;
  EXPECT_FALSE(RunKMeans(points, options).ok());
  options.k = 6;  // More clusters than points.
  EXPECT_FALSE(RunKMeans(points, options).ok());
  options.k = 2;
  options.max_iterations = 0;
  EXPECT_FALSE(RunKMeans(points, options).ok());
  EXPECT_FALSE(RunKMeans(Matrix(), options).ok());
}

TEST(KMeansTest, TwoEmptyClustersReseedWithDistinctPoints) {
  // Clusters 0 and 1 hold two points each; clusters 2 and 3 are empty.
  // Both reseed scans would pick the same globally-farthest point if
  // the donor were not marked as consumed after the first reseed.
  Matrix points(4, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 10.0;
  points.At(2, 0) = 100.0;
  points.At(3, 0) = 101.0;
  std::vector<int32_t> assignments{0, 0, 1, 1};
  Matrix centroids(4, 1, 0.0);
  RecomputeCentroids(points, assignments, centroids);
  // Non-empty clusters keep their means.
  EXPECT_NEAR(centroids.At(0, 0), 5.0, 1e-12);
  EXPECT_NEAR(centroids.At(1, 0), 100.5, 1e-12);
  // The two reseeded centroids must be distinct data points.
  EXPECT_NE(centroids.At(2, 0), centroids.At(3, 0));
}

TEST(KMeansTest, ConvergedRunSkipsRedundantFinalAssignment) {
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  test::Blobs blobs = MakeBlobs({{0.0, 0.0}, {10.0, 10.0}}, 30, 0.4, 23);
  KMeansOptions options;
  options.k = 2;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  ASSERT_TRUE(clustering->converged);
  // A converged run needs exactly one full-data assignment pass per
  // iteration — no extra pass after the loop.
  EXPECT_EQ(metrics.GetCounter("kmeans/assign_passes").value(),
            clustering->iterations);
  // SSE stays consistent with the returned assignments/centroids.
  double sse = 0.0;
  for (size_t i = 0; i < blobs.points.rows(); ++i) {
    sse += transform::SquaredDistance(
        blobs.points.Row(i),
        clustering->centroids.Row(
            static_cast<size_t>(clustering->assignments[i])));
  }
  EXPECT_NEAR(sse, clustering->sse, 1e-9);
}

TEST(KMeansTest, NonConvergedRunReassignsAgainstFinalCentroids) {
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  test::Blobs blobs = MakeBlobs(
      {{0.0, 0.0}, {3.0, 0.0}, {0.0, 3.0}, {3.0, 3.0}}, 30, 1.5, 29);
  KMeansOptions options;
  options.k = 4;
  options.max_iterations = 2;  // Force a non-converged exit.
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  ASSERT_FALSE(clustering->converged);
  EXPECT_EQ(metrics.GetCounter("kmeans/assign_passes").value(),
            clustering->iterations + 1);
  // The final assignment is consistent with the final centroids.
  for (size_t i = 0; i < blobs.points.rows(); ++i) {
    double assigned = transform::SquaredDistance(
        blobs.points.Row(i),
        clustering->centroids.Row(
            static_cast<size_t>(clustering->assignments[i])));
    for (size_t c = 0; c < clustering->centroids.rows(); ++c) {
      EXPECT_LE(assigned, transform::SquaredDistance(
                              blobs.points.Row(i),
                              clustering->centroids.Row(c)) +
                              1e-9);
    }
  }
}

TEST(ClusterSizesTest, CountsPerCluster) {
  std::vector<int32_t> assignments{0, 1, 1, 2, 1};
  EXPECT_EQ(ClusterSizes(assignments, 3),
            (std::vector<int64_t>{1, 3, 1}));
}

TEST(AdaptCentroidsTest, SameKReturnsCentroidsUnchanged) {
  test::Blobs blobs = MakeBlobs({{0.0}, {6.0}}, 20, 0.3, 91);
  KMeansOptions options;
  options.k = 2;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  Matrix adapted = AdaptCentroids(blobs.points, *clustering, 2);
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(adapted.At(c, 0), clustering->centroids.At(c, 0));
  }
}

TEST(AdaptCentroidsTest, ShrinkingKeepsLargestClusters) {
  // Cluster 1 is tiny; shrinking to k=2 must drop exactly its centroid.
  Matrix points(7, 1);
  for (size_t i = 0; i < 3; ++i) points.At(i, 0) = 0.0 + 0.1 * i;
  points.At(3, 0) = 50.0;
  for (size_t i = 4; i < 7; ++i) points.At(i, 0) = 100.0 + 0.1 * i;
  Clustering source;
  source.k = 3;
  source.assignments = {0, 0, 0, 1, 2, 2, 2};
  source.centroids = Matrix(3, 1);
  source.centroids.At(0, 0) = 0.1;
  source.centroids.At(1, 0) = 50.0;
  source.centroids.At(2, 0) = 100.5;
  Matrix adapted = AdaptCentroids(points, source, 2);
  ASSERT_EQ(adapted.rows(), 2u);
  EXPECT_EQ(adapted.At(0, 0), 0.1);
  EXPECT_EQ(adapted.At(1, 0), 100.5);
}

TEST(AdaptCentroidsTest, GrowingAddsFarthestPoints) {
  Matrix points(5, 1);
  points.At(0, 0) = 0.0;
  points.At(1, 0) = 1.0;
  points.At(2, 0) = 2.0;
  points.At(3, 0) = 100.0;
  points.At(4, 0) = 101.0;
  Clustering source;
  source.k = 1;
  source.assignments = {0, 0, 0, 0, 0};
  source.centroids = Matrix(1, 1);
  source.centroids.At(0, 0) = 1.0;
  Matrix adapted = AdaptCentroids(points, source, 2);
  ASSERT_EQ(adapted.rows(), 2u);
  EXPECT_EQ(adapted.At(0, 0), 1.0);
  // The farthest point from the existing centroid is 101.
  EXPECT_EQ(adapted.At(1, 0), 101.0);
}

TEST(KMeansTest, WarmStartFromOwnSolutionConvergesImmediately) {
  test::Blobs blobs = MakeBlobs({{0.0, 0.0}, {9.0, 9.0}}, 40, 0.5, 93);
  KMeansOptions options;
  options.k = 2;
  auto first = RunKMeans(blobs.points, options);
  ASSERT_TRUE(first.ok());
  options.initial_centroids = first->centroids;
  auto second = RunKMeans(blobs.points, options);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->converged);
  // Seeding from a converged solution re-converges right after the
  // first pass (the loop needs a second pass to observe stability).
  EXPECT_EQ(second->iterations, 2);
  EXPECT_EQ(second->assignments, first->assignments);
  EXPECT_EQ(second->sse, first->sse);
}

TEST(InitializeCentroidsTest, PlusPlusPicksDistinctPoints) {
  test::Blobs blobs = MakeBlobs({{0.0}, {100.0}, {200.0}}, 10, 0.1, 19);
  common::Rng rng(21);
  Matrix centroids = InitializeCentroids(blobs.points, 3,
                                         KMeansInit::kKMeansPlusPlus, rng);
  // With D^2 seeding on well-separated blobs, the three seeds land in
  // three different blobs.
  std::set<int> regions;
  for (size_t c = 0; c < 3; ++c) {
    regions.insert(static_cast<int>(centroids.At(c, 0) / 50.0));
  }
  EXPECT_EQ(regions.size(), 3u);
}

// ---------------------------------------------------------------------
// Generated oracles for the seeding and adaptation distances. Both now
// compute many points' exact distances to one centroid at a time; the
// one-point-at-a-time loops they replaced are kept verbatim below, and
// the results must match them bit for bit (the naive engine shares the
// new code, so it cannot serve as the reference).

/// InitializeCentroids' k-means++ branch before the lockstep distances.
template <typename Data>
Matrix OracleKMeansPlusPlus(const Data& data, int32_t k, common::Rng& rng) {
  using internal::CopyRowInto;
  using internal::ExactRowDistance;
  const size_t n = data.rows();
  Matrix centroids(static_cast<size_t>(k), data.cols());
  std::vector<double> min_distance(n, std::numeric_limits<double>::max());
  std::vector<double> prefix(n);
  size_t first = static_cast<size_t>(rng.UniformUint64(n));
  CopyRowInto(data, first, centroids.Row(0));
  for (int32_t c = 1; c < k; ++c) {
    std::span<const double> last = centroids.Row(static_cast<size_t>(c - 1));
    double cumulative = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double d = ExactRowDistance(data, i, last);
      min_distance[i] = std::min(min_distance[i], d);
      cumulative += min_distance[i];
      prefix[i] = cumulative;
    }
    const double total = prefix[n - 1];
    size_t chosen;
    if (total > 0.0) {
      double target = rng.UniformDouble() * total;
      // First index whose cumulative weight exceeds target; clamp to
      // the last point when rounding pushes target past the total.
      auto it = std::upper_bound(prefix.begin(), prefix.end(), target);
      chosen = it == prefix.end()
                   ? n - 1
                   : static_cast<size_t>(it - prefix.begin());
    } else {
      // All remaining distances zero (duplicated points): pick uniformly.
      chosen = static_cast<size_t>(rng.UniformUint64(n));
    }
    CopyRowInto(data, chosen, centroids.Row(static_cast<size_t>(c)));
  }
  return centroids;
}

/// AdaptCentroids before the lockstep distances.
Matrix OracleAdaptCentroids(const Matrix& data, const Clustering& source,
                            int32_t target_k) {
  using transform::SquaredDistance;
  const size_t k_prev = source.centroids.rows();
  const size_t k = static_cast<size_t>(target_k);
  const size_t dims = data.cols();
  if (k == k_prev) return source.centroids;

  Matrix out(k, dims);
  if (k < k_prev) {
    // Keep the centroids of the k largest clusters (relative order
    // preserved); the smallest clusters are the likeliest artifacts of
    // over-segmentation.
    std::vector<int64_t> sizes = ClusterSizes(source.assignments, source.k);
    std::vector<size_t> order(k_prev);
    for (size_t c = 0; c < k_prev; ++c) order[c] = c;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return sizes[a] > sizes[b];
    });
    order.resize(k);
    std::sort(order.begin(), order.end());
    for (size_t c = 0; c < k; ++c) {
      std::span<const double> src = source.centroids.Row(order[c]);
      std::span<double> dst = out.Row(c);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    return out;
  }

  // Growing: keep every centroid and add data points by farthest-point
  // selection — deterministic (no rng), so warm-started runs stay
  // reproducible.
  for (size_t c = 0; c < k_prev; ++c) {
    std::span<const double> src = source.centroids.Row(c);
    std::span<double> dst = out.Row(c);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  std::vector<double> min_distance(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    double nearest = std::numeric_limits<double>::max();
    for (size_t c = 0; c < k_prev; ++c) {
      nearest = std::min(nearest, SquaredDistance(data.Row(i), out.Row(c)));
    }
    min_distance[i] = nearest;
  }
  for (size_t c = k_prev; c < k; ++c) {
    size_t farthest = 0;
    double worst = -1.0;
    for (size_t i = 0; i < data.rows(); ++i) {
      if (min_distance[i] > worst) {
        worst = min_distance[i];
        farthest = i;
      }
    }
    std::span<const double> src = data.Row(farthest);
    std::span<double> dst = out.Row(c);
    std::copy(src.begin(), src.end(), dst.begin());
    for (size_t i = 0; i < data.rows(); ++i) {
      min_distance[i] =
          std::min(min_distance[i], SquaredDistance(data.Row(i), dst));
    }
  }
  return out;
}

/// Mostly-zero exam counts and reals, with signed zeros, subnormals,
/// wide magnitudes and duplicated rows (exact ties between distances).
Matrix GeneratedPoints(common::Rng& rng, size_t n, size_t dims) {
  Matrix points(n, dims);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && test::Bernoulli(rng, 0.15)) {
      const size_t src = rng.UniformUint64(i);
      for (size_t d = 0; d < dims; ++d) points.At(i, d) = points.At(src, d);
      continue;
    }
    for (size_t d = 0; d < dims; ++d) {
      double value = 0.0;
      switch (rng.UniformUint64(8)) {
        case 0:
          value = static_cast<double>(rng.UniformInt(1, 6));
          break;
        case 1:
          value = rng.Normal(0.0, 3.0);
          break;
        case 2:
          value = std::numeric_limits<double>::denorm_min() *
                  static_cast<double>(rng.UniformInt(-9, 9));
          break;
        case 3:
          value = rng.Normal(0.0, 1e100);
          break;
        case 4:
          value = -0.0;
          break;
        default:
          break;
      }
      points.At(i, d) = value;
    }
  }
  return points;
}

void ExpectSameBits(const Matrix& got, const Matrix& expected,
                    const std::string& context) {
  ASSERT_EQ(got.rows(), expected.rows()) << context;
  ASSERT_EQ(got.cols(), expected.cols()) << context;
  for (size_t r = 0; r < got.rows(); ++r) {
    for (size_t c = 0; c < got.cols(); ++c) {
      const double a = got.At(r, c);
      const double b = expected.At(r, c);
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << context << " at (" << r << ", " << c << "): " << a << " vs "
          << b;
    }
  }
}

/// Runs `body` under the scalar kernels and, where available, AVX2.
template <typename Body>
void ForEachIsa(Body body) {
  using transform::simd::IsaLevel;
  std::vector<IsaLevel> isas = {IsaLevel::kScalar};
  if (transform::simd::internal::Avx2Available()) {
    isas.push_back(IsaLevel::kAvx2Fma);
  }
  for (IsaLevel isa : isas) {
    transform::simd::internal::SetIsaForTesting(isa);
    body(std::string(transform::simd::IsaName(isa)));
    transform::simd::internal::ResetIsaForTesting();
  }
}

TEST(InitializeCentroidsTest, PlusPlusMatchesOnePointAtATimeOracle) {
  common::Rng gen(20261021);
  int cases = 0;
  for (size_t n : {1u, 2u, 7u, 9u, 40u, 129u, 203u}) {
    for (size_t dims : {1u, 3u, 33u, 159u}) {
      const Matrix dense = GeneratedPoints(gen, n, dims);
      const CsrMatrix sparse = CsrMatrix::FromDense(dense);
      for (int32_t k : {1, 2, 5, 13}) {
        if (static_cast<size_t>(k) > n) continue;
        const uint64_t seed = gen.UniformUint64(1u << 30);
        ForEachIsa([&](const std::string& isa) {
          const std::string context = isa + " n=" + std::to_string(n) +
                                      " dims=" + std::to_string(dims) +
                                      " k=" + std::to_string(k);
          common::Rng got_rng(seed);
          common::Rng want_rng(seed);
          ExpectSameBits(InitializeCentroids(dense, k,
                                             KMeansInit::kKMeansPlusPlus,
                                             got_rng),
                         OracleKMeansPlusPlus(dense, k, want_rng),
                         "dense " + context);
          EXPECT_EQ(got_rng.UniformUint64(1u << 30),
                    want_rng.UniformUint64(1u << 30))
              << context;
          common::Rng got_sparse(seed);
          common::Rng want_sparse(seed);
          ExpectSameBits(InitializeCentroids(sparse, k,
                                             KMeansInit::kKMeansPlusPlus,
                                             got_sparse),
                         OracleKMeansPlusPlus(sparse, k, want_sparse),
                         "sparse " + context);
          EXPECT_EQ(got_sparse.UniformUint64(1u << 30),
                    want_sparse.UniformUint64(1u << 30))
              << context;
        });
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 60);
}

TEST(AdaptCentroidsTest, MatchesOnePointAtATimeOracle) {
  common::Rng gen(20261022);
  int grown = 0;
  for (size_t n : {3u, 9u, 40u, 129u, 203u}) {
    for (size_t dims : {1u, 3u, 33u, 159u}) {
      const Matrix data = GeneratedPoints(gen, n, dims);
      for (int trial = 0; trial < 3; ++trial) {
        Clustering source;
        source.k = static_cast<int32_t>(
            gen.UniformInt(1, static_cast<int64_t>(std::min<size_t>(n, 9))));
        // Centroids from rows and fresh points; assignments arbitrary
        // but covering every cluster.
        source.centroids = GeneratedPoints(
            gen, static_cast<size_t>(source.k), dims);
        source.assignments.resize(n);
        for (size_t i = 0; i < n; ++i) {
          source.assignments[i] = static_cast<int32_t>(
              i < static_cast<size_t>(source.k)
                  ? i
                  : gen.UniformUint64(static_cast<uint64_t>(source.k)));
        }
        const int32_t target_k = static_cast<int32_t>(
            gen.UniformInt(1, static_cast<int64_t>(std::min<size_t>(n, 16))));
        if (target_k > source.k) ++grown;
        ForEachIsa([&](const std::string& isa) {
          ExpectSameBits(AdaptCentroids(data, source, target_k),
                         OracleAdaptCentroids(data, source, target_k),
                         isa + " n=" + std::to_string(n) +
                             " dims=" + std::to_string(dims) + " k " +
                             std::to_string(source.k) + " -> " +
                             std::to_string(target_k));
        });
      }
    }
  }
  EXPECT_GE(grown, 20);
}

}  // namespace
}  // namespace cluster
}  // namespace adahealth
