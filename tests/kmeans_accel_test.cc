// Bit-identity and concurrency tests for the accelerated k-means
// engine: the accelerated result must equal the naive result exactly
// (assignments, centroids, SSE, iteration counts) for every
// configuration, serial or parallel.
#include "cluster/kmeans_accel.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "test_util.h"
#include "transform/sparse_matrix.h"

namespace adahealth {
namespace cluster {
namespace {

using test::MakeBlobs;
using transform::Matrix;

// Exact comparison: the accelerated engine promises bit-identical
// output, so no tolerance anywhere.
void ExpectIdentical(const Clustering& naive, const Clustering& accel) {
  EXPECT_EQ(naive.assignments, accel.assignments);
  EXPECT_EQ(naive.sse, accel.sse);
  EXPECT_EQ(naive.iterations, accel.iterations);
  EXPECT_EQ(naive.converged, accel.converged);
  ASSERT_EQ(naive.centroids.rows(), accel.centroids.rows());
  ASSERT_EQ(naive.centroids.cols(), accel.centroids.cols());
  for (size_t c = 0; c < naive.centroids.rows(); ++c) {
    for (size_t d = 0; d < naive.centroids.cols(); ++d) {
      EXPECT_EQ(naive.centroids.At(c, d), accel.centroids.At(c, d))
          << "centroid " << c << " dim " << d;
    }
  }
}

void RunBothAndCompare(const Matrix& data, KMeansOptions options) {
  options.engine = KMeansEngine::kNaive;
  auto naive = RunKMeans(data, options);
  options.engine = KMeansEngine::kAccelerated;
  auto accel = RunKMeans(data, options);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(accel.ok());
  ExpectIdentical(*naive, *accel);
}

TEST(KMeansAccelTest, MatchesNaiveOnRandomizedShapes) {
  common::Rng shape_rng(20260807);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 2 + shape_rng.UniformUint64(300);
    const size_t dims = 1 + shape_rng.UniformUint64(24);
    const int32_t k =
        1 + static_cast<int32_t>(shape_rng.UniformUint64(
                std::min<size_t>(n, 12)));
    Matrix data(n, dims);
    for (size_t i = 0; i < n; ++i) {
      for (size_t d = 0; d < dims; ++d) {
        data.At(i, d) = shape_rng.Normal(0.0, 5.0);
      }
    }
    // A third of the trials duplicate a block of rows, stressing ties
    // (naive breaks ties toward the lower centroid index) and the
    // zero-distance branches of k-means++.
    if (trial % 3 == 0) {
      for (size_t i = n / 2; i < n; ++i) {
        std::span<const double> src = data.Row(i % (n / 2 + 1));
        std::span<double> dst = data.Row(i);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
    KMeansOptions options;
    options.k = k;
    options.seed = 1000 + static_cast<uint64_t>(trial);
    options.init = trial % 2 == 0 ? KMeansInit::kKMeansPlusPlus
                                  : KMeansInit::kRandom;
    // Some trials cut iterations short to exercise the non-converged
    // extra assignment pass.
    options.max_iterations = trial % 5 == 0 ? 2 : 100;
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                 std::to_string(n) + " dims=" + std::to_string(dims) +
                 " k=" + std::to_string(k));
    RunBothAndCompare(data, options);
  }
  // Cluster counts that leave a partial lane vector (5, 13, 17) or span
  // several (20) in the dense exact-lane scan, on data where half the
  // rows repeat earlier ones: duplicate points put exact ties between
  // centroids, which must break toward the lower index as in the
  // naive scan.
  for (int32_t k : {5, 13, 17, 20}) {
    for (int trial = 0; trial < 4; ++trial) {
      const size_t n = 40 + shape_rng.UniformUint64(200);
      const size_t dims = 1 + shape_rng.UniformUint64(40);
      Matrix data(n, dims);
      for (size_t i = 0; i < n; ++i) {
        const bool duplicate = i % 2 == 1 && trial % 2 == 0;
        const size_t src = duplicate ? shape_rng.UniformUint64(i) : i;
        for (size_t d = 0; d < dims; ++d) {
          data.At(i, d) =
              duplicate ? data.At(src, d)
                        : static_cast<double>(shape_rng.UniformInt(-3, 3));
        }
      }
      KMeansOptions options;
      options.k = k;
      options.seed = 77 + static_cast<uint64_t>(trial);
      options.init = trial < 2 ? KMeansInit::kKMeansPlusPlus
                               : KMeansInit::kRandom;
      SCOPED_TRACE("k=" + std::to_string(k) + " trial " +
                   std::to_string(trial) + " n=" + std::to_string(n) +
                   " dims=" + std::to_string(dims));
      RunBothAndCompare(data, options);
    }
  }
}

TEST(KMeansAccelTest, MatchesNaiveThroughEmptyClusterReseeds) {
  // k close to n with heavy duplication forces clusters to empty out
  // and the farthest-point reseed to run, on both engines.
  Matrix data(12, 2);
  for (size_t i = 0; i < 12; ++i) {
    data.At(i, 0) = i < 9 ? 1.0 : static_cast<double>(i) * 50.0;
    data.At(i, 1) = i < 9 ? 1.0 : -static_cast<double>(i);
  }
  for (uint64_t seed = 0; seed < 20; ++seed) {
    KMeansOptions options;
    options.k = 6;
    options.seed = seed;
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunBothAndCompare(data, options);
  }
}

TEST(KMeansAccelTest, MatchesNaiveWithWarmStartCentroids) {
  test::Blobs blobs =
      MakeBlobs({{0.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}}, 40, 1.0, 31);
  Matrix warm(3, 2);
  warm.At(0, 0) = 1.0;
  warm.At(1, 0) = 5.0;
  warm.At(2, 1) = 5.0;
  KMeansOptions options;
  options.k = 3;
  options.initial_centroids = warm;
  RunBothAndCompare(blobs.points, options);
}

TEST(KMeansAccelTest, KEqualsOneMatchesNaive) {
  test::Blobs blobs = MakeBlobs({{2.0, -1.0}}, 50, 1.0, 37);
  KMeansOptions options;
  options.k = 1;
  RunBothAndCompare(blobs.points, options);
}

TEST(KMeansAccelTest, ParallelPathIsBitIdenticalToNaive) {
  // Big enough that n*k*dims crosses the work budget and the centroid
  // reduction spans multiple chunks; a 4-thread private pool forces
  // the parallel path even on single-core machines.
  test::Blobs blobs = MakeBlobs({{0.0, 0.0, 0.0, 0.0},
                                 {8.0, 0.0, 0.0, 0.0},
                                 {0.0, 8.0, 0.0, 0.0},
                                 {0.0, 0.0, 8.0, 0.0}},
                                1250, 2.0, 41);
  Matrix wide(blobs.points.rows(), 16);
  for (size_t i = 0; i < wide.rows(); ++i) {
    for (size_t d = 0; d < 16; ++d) {
      wide.At(i, d) = blobs.points.At(i, d % 4) + 0.01 * static_cast<double>(d);
    }
  }
  KMeansOptions options;
  options.k = 16;
  options.seed = 43;
  options.engine = KMeansEngine::kNaive;
  auto naive = RunKMeans(wide, options);
  ASSERT_TRUE(naive.ok());

  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  common::ThreadPool pool(4);
  auto accel = internal::RunAcceleratedKMeansOnPool(wide, options, pool);
  ASSERT_TRUE(accel.ok());
  ExpectIdentical(*naive, *accel);
  // The run must actually have used the pool.
  EXPECT_GT(metrics.GetCounter("kmeans/parallel_chunks").value(), 0);
}

TEST(KMeansAccelTest, PruningMetricsRecorded) {
  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  test::Blobs blobs = MakeBlobs(
      {{0.0, 0.0}, {20.0, 0.0}, {0.0, 20.0}, {20.0, 20.0}}, 100, 0.5, 47);
  KMeansOptions options;
  options.k = 4;
  auto clustering = RunKMeans(blobs.points, options);
  ASSERT_TRUE(clustering.ok());
  // Well-separated blobs converge with most points never re-scanned
  // after the first pass.
  EXPECT_GT(metrics.GetCounter("kmeans/skipped_distance_checks").value(), 0);
  EXPECT_GE(metrics.GetCounter("kmeans/bound_recomputes").value(), 0);
}

// --- Sparse axis --------------------------------------------------------
//
// The CSR path must reproduce the dense naive engine bit for bit, for
// any density (0%..100%), with duplicate rows, all-zero rows, small
// and large k, serial or forced-parallel. The test data contains no
// negative zeros, so even the centroids compare with EXPECT_EQ.

Matrix RandomSparseData(common::Rng& rng, size_t n, size_t dims,
                        double density) {
  Matrix data(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) {
      if (rng.UniformDouble() < density) {
        data.At(i, d) = rng.Normal(0.0, 4.0);
      }
    }
  }
  return data;
}

TEST(KMeansSparseTest, FourWayIdentityAcrossRandomizedDensities) {
  common::Rng shape_rng(20260809);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 4 + shape_rng.UniformUint64(200);
    const size_t dims = 2 + shape_rng.UniformUint64(60);
    const double density = shape_rng.UniformDouble();  // 0%..100%.
    const int32_t k =
        1 + static_cast<int32_t>(
                shape_rng.UniformUint64(std::min<size_t>(n, 10)));
    Matrix data = RandomSparseData(shape_rng, n, dims, density);
    // A third of the trials duplicate a block of rows (ties); every
    // fourth zeroes a few rows entirely (empty CSR rows).
    if (trial % 3 == 0) {
      for (size_t i = n / 2; i < n; ++i) {
        std::span<const double> src = data.Row(i % (n / 2 + 1));
        std::span<double> dst = data.Row(i);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
    if (trial % 4 == 0) {
      for (size_t i = 0; i < n; i += 7) {
        std::span<double> row = data.Row(i);
        std::fill(row.begin(), row.end(), 0.0);
      }
    }
    transform::CsrMatrix sparse = transform::CsrMatrix::FromDense(data);

    KMeansOptions options;
    options.k = k;
    options.seed = 20000 + static_cast<uint64_t>(trial);
    options.init = trial % 2 == 0 ? KMeansInit::kKMeansPlusPlus
                                  : KMeansInit::kRandom;
    options.max_iterations = trial % 5 == 0 ? 2 : 100;
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                 std::to_string(n) + " dims=" + std::to_string(dims) +
                 " k=" + std::to_string(k) + " density=" +
                 std::to_string(density));

    options.engine = KMeansEngine::kNaive;
    options.representation = KMeansRepresentation::kDense;
    auto dense_naive = RunKMeans(data, options);
    ASSERT_TRUE(dense_naive.ok());

    options.engine = KMeansEngine::kAccelerated;
    auto dense_accel = RunKMeans(data, options);
    ASSERT_TRUE(dense_accel.ok());
    ExpectIdentical(*dense_naive, *dense_accel);

    options.engine = KMeansEngine::kNaive;
    options.representation = KMeansRepresentation::kAuto;
    auto sparse_naive = RunKMeans(sparse, options);
    ASSERT_TRUE(sparse_naive.ok());
    ExpectIdentical(*dense_naive, *sparse_naive);

    options.engine = KMeansEngine::kAccelerated;
    auto sparse_accel = RunKMeans(sparse, options);
    ASSERT_TRUE(sparse_accel.ok());
    ExpectIdentical(*dense_naive, *sparse_accel);
  }
}

TEST(KMeansSparseTest, AutoRepresentationDispatchesAndStaysIdentical) {
  // 400 x 48 at ~10% density, which sits right at the default
  // threshold's boundary — so both assertions pin the threshold
  // explicitly (this test is about the dispatch mechanics, not the
  // default value): kAuto on the dense overload must take the CSR
  // path below the cutoff (visible via the metric) and still return
  // the dense naive result exactly.
  common::Rng rng(20260810);
  Matrix data = RandomSparseData(rng, 400, 48, 0.10);

  KMeansOptions options;
  options.k = 6;
  options.seed = 77;
  options.sparse_density_threshold = 0.5;
  options.engine = KMeansEngine::kNaive;
  options.representation = KMeansRepresentation::kDense;
  auto reference = RunKMeans(data, options);
  ASSERT_TRUE(reference.ok());

  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  options.engine = KMeansEngine::kAccelerated;
  options.representation = KMeansRepresentation::kAuto;
  auto auto_run = RunKMeans(data, options);
  ASSERT_TRUE(auto_run.ok());
  ExpectIdentical(*reference, *auto_run);
  EXPECT_EQ(metrics.GetCounter("kmeans/sparse_runs").value(), 1);

  // Above the threshold the dense kernels must be chosen instead.
  metrics.Reset();
  options.sparse_density_threshold = 0.01;
  auto dense_run = RunKMeans(data, options);
  ASSERT_TRUE(dense_run.ok());
  ExpectIdentical(*reference, *dense_run);
  EXPECT_EQ(metrics.GetCounter("kmeans/sparse_runs").value(), 0);
}

TEST(KMeansSparseTest, ForcedParallelSparsePathIsBitIdentical) {
  // Enough non-zeros that nnz*k crosses the 2^20 work budget: the
  // sparse engine fans out over a 4-thread private pool and must still
  // match the serial dense naive engine bit for bit.
  common::Rng rng(20260811);
  Matrix data = RandomSparseData(rng, 4000, 160, 0.15);
  transform::CsrMatrix sparse = transform::CsrMatrix::FromDense(data);

  KMeansOptions options;
  options.k = 16;
  options.seed = 131;
  options.engine = KMeansEngine::kNaive;
  auto naive = RunKMeans(data, options);
  ASSERT_TRUE(naive.ok());

  common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
  metrics.Reset();
  common::ThreadPool pool(4);
  auto accel = internal::RunAcceleratedKMeansOnPool(sparse, options, pool);
  ASSERT_TRUE(accel.ok());
  ExpectIdentical(*naive, *accel);
  EXPECT_GT(metrics.GetCounter("kmeans/parallel_chunks").value(), 0);
}

TEST(KMeansSparseTest, SmallKSkipsBoundsAndStaysIdentical) {
  // k below kMinClustersForBounds: the engine must skip the Hamerly
  // bookkeeping (visible via the metric) and still match naive exactly.
  common::Rng rng(20260812);
  Matrix data = RandomSparseData(rng, 600, 64, 0.15);
  for (int32_t k : {1, 2, 3}) {
    KMeansOptions options;
    options.k = k;
    options.seed = 137 + static_cast<uint64_t>(k);
    SCOPED_TRACE("k=" + std::to_string(k));
    common::MetricsRegistry& metrics = common::MetricsRegistry::Default();
    metrics.Reset();
    RunBothAndCompare(data, options);
    EXPECT_GT(metrics.GetCounter("kmeans/smallk_unbounded_runs").value(), 0);
  }
}

TEST(KMeansSparseTest, CsrValidationMatchesDense) {
  transform::CsrMatrix::Builder builder(3);
  ASSERT_TRUE(builder.AddRow({{0, 1.0}}).ok());
  ASSERT_TRUE(builder.AddRow({{1, 2.0}}).ok());
  transform::CsrMatrix sparse = std::move(builder).Build();
  KMeansOptions options;
  options.k = 5;  // k > rows.
  auto run = RunKMeans(sparse, options);
  EXPECT_FALSE(run.ok());
}

TEST(KMeansAccelTest, ConcurrentRunsOnOnePoolAreSafeAndDeterministic) {
  // Several threads run the parallel engine against the same pool at
  // once — the TSan job turns any data race in the chunk claiming or
  // bound bookkeeping into a failure. Nested parallelism (engine
  // passes scheduling onto a pool whose workers are already running
  // engine passes) must not deadlock either.
  test::Blobs blobs = MakeBlobs({{0.0, 0.0}, {10.0, 10.0}}, 1200, 1.0, 53);
  Matrix wide(blobs.points.rows(), 24);
  for (size_t i = 0; i < wide.rows(); ++i) {
    for (size_t d = 0; d < 24; ++d) {
      wide.At(i, d) = blobs.points.At(i, d % 2) + static_cast<double>(d);
    }
  }
  KMeansOptions options;
  options.k = 24;
  options.seed = 59;

  common::ThreadPool pool(4);
  constexpr int kRunners = 4;
  std::vector<Clustering> results(kRunners);
  std::vector<std::thread> runners;
  runners.reserve(kRunners);
  for (int r = 0; r < kRunners; ++r) {
    runners.emplace_back([&, r] {
      auto run = internal::RunAcceleratedKMeansOnPool(wide, options, pool);
      ASSERT_TRUE(run.ok());
      results[static_cast<size_t>(r)] = *std::move(run);
    });
  }
  for (std::thread& t : runners) t.join();
  for (int r = 1; r < kRunners; ++r) {
    ExpectIdentical(results[0], results[static_cast<size_t>(r)]);
  }
}

}  // namespace
}  // namespace cluster
}  // namespace adahealth
