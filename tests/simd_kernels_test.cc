// AVX2-vs-scalar equivalence for the runtime-dispatched kernels,
// generated bit-for-bit oracles for the exact kernels
// (ExactSquaredDistancesLanes and ExactSquaredDistancesRows against
// SquaredDistance, and k-means' CSR tiles against
// SparseSquaredDistance), and the
// engine-level guarantee that k-means results do not depend on the
// dispatched ISA.
#include "transform/simd_kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>
#include "cluster/kmeans.h"
#include "common/rng.h"
#include "test_util.h"
#include "transform/matrix.h"
#include "transform/sparse_matrix.h"

namespace adahealth {
namespace transform {
namespace {

using cluster::Clustering;
using cluster::KMeansOptions;
using simd::IsaLevel;

/// Restores the process-wide dispatch on scope exit so a failing test
/// cannot leak a pinned ISA into later tests.
struct ScopedIsa {
  explicit ScopedIsa(IsaLevel isa) { simd::internal::SetIsaForTesting(isa); }
  ~ScopedIsa() { simd::internal::ResetIsaForTesting(); }
};

TEST(SimdKernelsTest, IsaNameCoversAllLevels) {
  EXPECT_STREQ(simd::IsaName(IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::IsaName(IsaLevel::kAvx2Fma), "avx2+fma");
}

TEST(SimdKernelsTest, ScalarPinAlwaysTakes) {
  ScopedIsa pin(IsaLevel::kScalar);
  EXPECT_EQ(simd::ActiveIsa(), IsaLevel::kScalar);
}

TEST(SimdKernelsTest, Avx2PinOnlyNarrows) {
  // Requesting AVX2 on a machine (or build) without it must fall back
  // to scalar — the hook can never widen past what the CPU supports.
  ScopedIsa pin(IsaLevel::kAvx2Fma);
  if (simd::internal::Avx2Available()) {
    EXPECT_EQ(simd::ActiveIsa(), IsaLevel::kAvx2Fma);
  } else {
    EXPECT_EQ(simd::ActiveIsa(), IsaLevel::kScalar);
  }
}

TEST(SimdKernelsTest, DotProductMatchesExactWithinEnvelope) {
  common::Rng rng(89);
  // Sizes straddle every unroll boundary: sub-lane, one 4-lane block,
  // the 16-wide main loop, and ragged tails.
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 15u, 16u, 17u, 48u, 159u, 1000u}) {
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Normal(0.0, 3.0);
      b[i] = rng.Normal(0.0, 3.0);
    }
    const double exact = Dot(a, b);
    const double got = simd::DotProduct(a, b);
    double scale = 0.0;
    for (size_t i = 0; i < n; ++i) scale += std::abs(a[i] * b[i]);
    EXPECT_NEAR(got, exact, FusedRelativeError(n) * (scale + 1.0))
        << "n=" << n;
  }
}

TEST(SimdKernelsTest, ScalarAndAvx2AgreeWithinEnvelope) {
  if (!simd::internal::Avx2Available()) {
    GTEST_SKIP() << "AVX2+FMA not available in this build/CPU";
  }
  common::Rng rng(97);
  for (size_t n : {1u, 7u, 16u, 33u, 64u, 159u}) {
    std::vector<double> a(n);
    std::vector<double> b(n);
    std::vector<double> y0(n);
    std::vector<double> y1(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Normal(0.0, 2.0);
      b[i] = rng.Normal(0.0, 2.0);
      y0[i] = rng.Normal(0.0, 1.0);
      y1[i] = y0[i];
    }
    double scalar_dot;
    double scalar_norm;
    {
      ScopedIsa pin(IsaLevel::kScalar);
      scalar_dot = simd::DotProduct(a, b);
      scalar_norm = simd::SquaredNorm(a);
      simd::Axpy(0.75, a, y0);
    }
    {
      ScopedIsa pin(IsaLevel::kAvx2Fma);
      const double rel = FusedRelativeError(n);
      double scale = 0.0;
      for (size_t i = 0; i < n; ++i) scale += std::abs(a[i] * b[i]);
      EXPECT_NEAR(simd::DotProduct(a, b), scalar_dot, rel * (scale + 1.0));
      EXPECT_NEAR(simd::SquaredNorm(a), scalar_norm,
                  rel * (scalar_norm + 1.0));
      simd::Axpy(0.75, a, y1);
      for (size_t i = 0; i < n; ++i) {
        // Per-lane: one FMA rounding vs multiply-then-add — at most a
        // few ulps apart.
        EXPECT_NEAR(y1[i], y0[i],
                    8.0 * std::numeric_limits<double>::epsilon() *
                        (std::abs(y0[i]) + std::abs(0.75 * a[i])))
            << "n=" << n << " lane " << i;
      }
    }
  }
}

TEST(SimdKernelsTest, RepeatedCallsAreDeterministic) {
  common::Rng rng(101);
  std::vector<double> a(159);
  std::vector<double> b(159);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Normal(0.0, 2.0);
    b[i] = rng.Normal(0.0, 2.0);
  }
  const double first = simd::DotProduct(a, b);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(simd::DotProduct(a, b), first);
}

/// One generated coordinate: mostly ordinary values, plus the inputs
/// where a reassociated or fused sum would show first — signed zeros,
/// subnormals, magnitudes whose squares sit near the top or bottom of
/// the exponent range, and exact copies of the point's coordinate.
double OracleValue(common::Rng& rng, double point_coord) {
  const double sign = test::Bernoulli(rng, 0.5) ? 1.0 : -1.0;
  switch (rng.UniformUint64(8)) {
    case 0:
      return sign * 0.0;
    case 1:
      return sign * std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.UniformInt(1, 1 << 20));
    case 2:
      return rng.Normal(0.0, 1e150);
    case 3:
      return rng.Normal(0.0, 1e-160);
    case 4:
      return point_coord;
    default:
      return rng.Normal(0.0, 5.0);
  }
}

/// The lane kernel's input layout: `centroids` transposed into
/// dims rows of `stride` doubles, the padding columns poisoned with NaN
/// (they are read, but must never reach an output).
std::vector<double> PaddedTranspose(const Matrix& centroids, size_t stride) {
  std::vector<double> block(centroids.cols() * stride,
                            std::numeric_limits<double>::quiet_NaN());
  for (size_t c = 0; c < centroids.rows(); ++c) {
    for (size_t d = 0; d < centroids.cols(); ++d) {
      block[d * stride + c] = centroids.At(c, d);
    }
  }
  return block;
}

std::vector<IsaLevel> TestedIsas() {
  std::vector<IsaLevel> isas = {IsaLevel::kScalar};
  if (simd::internal::Avx2Available()) isas.push_back(IsaLevel::kAvx2Fma);
  return isas;
}

void ExpectLanesMatchSquaredDistance(common::Rng& rng, size_t k,
                                     size_t dims) {
  std::vector<double> point(dims);
  for (size_t d = 0; d < dims; ++d) point[d] = OracleValue(rng, 1.0);
  Matrix centroids(k, dims);
  for (size_t c = 0; c < k; ++c) {
    // Every fourth centroid past the first duplicates an earlier one,
    // so exact ties reach the lanes.
    if (c > 0 && c % 4 == 0) {
      const size_t src = rng.UniformUint64(c);
      for (size_t d = 0; d < dims; ++d) {
        centroids.At(c, d) = centroids.At(src, d);
      }
      continue;
    }
    for (size_t d = 0; d < dims; ++d) {
      centroids.At(c, d) = OracleValue(rng, point[d]);
    }
  }
  const size_t stride =
      (k + simd::kLaneWidth - 1) / simd::kLaneWidth * simd::kLaneWidth +
      simd::kLaneWidth * rng.UniformUint64(2);
  const std::vector<double> block = PaddedTranspose(centroids, stride);
  for (IsaLevel isa : TestedIsas()) {
    ScopedIsa pin(isa);
    std::vector<double> out(k);
    simd::ExactSquaredDistancesLanes(point, block, stride, out);
    for (size_t c = 0; c < k; ++c) {
      const double exact = SquaredDistance(point, centroids.Row(c));
      EXPECT_EQ(std::memcmp(&out[c], &exact, sizeof(double)), 0)
          << simd::IsaName(isa) << " k=" << k << " dims=" << dims
          << " stride=" << stride << " c=" << c << ": " << out[c]
          << " vs " << exact;
    }
  }
}

TEST(SimdKernelsTest, ExactLanesAreBitIdenticalToSquaredDistance) {
  common::Rng rng(20261018);
  // Every k in [1, 40] (ragged vector counts, one and two 32-lane
  // blocks) against dims from a single coordinate to 300.
  for (size_t k = 1; k <= 40; ++k) {
    for (size_t dims : {1u, 2u, 3u, 5u, 16u, 33u, 159u, 300u}) {
      ExpectLanesMatchSquaredDistance(rng, k, dims);
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    ExpectLanesMatchSquaredDistance(rng, 1 + rng.UniformUint64(40),
                                    1 + rng.UniformUint64(300));
  }
}

/// `n` generated points of `dims` coordinates (every fifth one a copy
/// of an earlier point, so exact ties and zero distances occur) and one
/// vector `v`, all from OracleValue's families. Rows are laid out with
/// `stride` >= dims, the padding poisoned with NaN.
struct RowsCase {
  size_t stride = 0;
  std::vector<double> rows;
  std::vector<double> v;
};

RowsCase MakeRowsCase(common::Rng& rng, size_t n, size_t dims, size_t stride) {
  RowsCase rows_case;
  rows_case.stride = stride;
  rows_case.v.resize(dims);
  for (size_t d = 0; d < dims; ++d) rows_case.v[d] = OracleValue(rng, 1.0);
  rows_case.rows.assign(n * stride, std::numeric_limits<double>::quiet_NaN());
  for (size_t p = 0; p < n; ++p) {
    double* row = rows_case.rows.data() + p * stride;
    if (p > 0 && p % 5 == 0) {
      const double* src = rows_case.rows.data() + rng.UniformUint64(p) * stride;
      std::copy(src, src + dims, row);
      continue;
    }
    for (size_t d = 0; d < dims; ++d) {
      row[d] = OracleValue(rng, rows_case.v[d]);
    }
  }
  return rows_case;
}

TEST(SimdKernelsTest, ExactRowsAreBitIdenticalToSquaredDistance) {
  common::Rng rng(20261019);
  std::vector<size_t> counts;
  for (size_t n = 1; n <= 40; ++n) counts.push_back(n);
  for (size_t tiles : {8u, 16u, 31u}) {
    counts.push_back(tiles * simd::kRowTile - 1);
    counts.push_back(tiles * simd::kRowTile + 1);
  }
  for (size_t n : counts) {
    for (size_t dims : {1u, 2u, 3u, 5u, 16u, 33u, 159u, 300u}) {
      const size_t stride = dims + (test::Bernoulli(rng, 0.3) ? 3 : 0);
      const RowsCase rows_case = MakeRowsCase(rng, n, dims, stride);
      // The last row needs only its dims, not a whole stride.
      const std::span<const double> rows(rows_case.rows.data(),
                                         (n - 1) * stride + dims);
      for (IsaLevel isa : TestedIsas()) {
        ScopedIsa pin(isa);
        std::vector<double> out(n);
        simd::ExactSquaredDistancesRows(rows, stride, rows_case.v, out);
        for (size_t p = 0; p < n; ++p) {
          const double exact = SquaredDistance(
              rows.subspan(p * stride, dims), rows_case.v);
          ASSERT_EQ(std::memcmp(&out[p], &exact, sizeof(double)), 0)
              << simd::IsaName(isa) << " n=" << n << " dims=" << dims
              << " stride=" << stride << " p=" << p << ": " << out[p]
              << " vs " << exact;
        }
      }
    }
  }
}

/// k-means' CSR path densifies one tile at a time into a reused buffer;
/// every distance must equal SparseSquaredDistance on the row, and the
/// dense path SquaredDistance, bit for bit.
TEST(SimdKernelsTest, KMeansRowDistancesMatchTheOnePointKernels) {
  common::Rng rng(20261020);
  for (size_t n : {1u, 7u, 8u, 9u, 17u, 40u, 65u}) {
    for (size_t dims : {1u, 3u, 33u, 159u}) {
      RowsCase rows_case = MakeRowsCase(rng, n, dims, dims);
      // Mostly zeros, as in an exam-count VSM.
      for (double& value : rows_case.rows) {
        if (test::Bernoulli(rng, 0.7)) value = 0.0;
      }
      Matrix dense(n, dims);
      for (size_t p = 0; p < n; ++p) {
        for (size_t d = 0; d < dims; ++d) {
          dense.At(p, d) = rows_case.rows[p * dims + d];
        }
      }
      const CsrMatrix sparse = CsrMatrix::FromDense(dense);
      for (IsaLevel isa : TestedIsas()) {
        ScopedIsa pin(isa);
        std::vector<double> dense_out(n);
        std::vector<double> sparse_out(n);
        cluster::internal::ExactRowDistances(dense, rows_case.v, dense_out);
        cluster::internal::ExactRowDistances(sparse, rows_case.v, sparse_out);
        for (size_t p = 0; p < n; ++p) {
          const double exact = SquaredDistance(dense.Row(p), rows_case.v);
          const double sparse_exact =
              SparseSquaredDistance(sparse.Row(p), rows_case.v);
          ASSERT_EQ(std::memcmp(&dense_out[p], &exact, sizeof(double)), 0)
              << simd::IsaName(isa) << " n=" << n << " dims=" << dims
              << " p=" << p;
          ASSERT_EQ(
              std::memcmp(&sparse_out[p], &sparse_exact, sizeof(double)), 0)
              << simd::IsaName(isa) << " n=" << n << " dims=" << dims
              << " p=" << p << ": " << sparse_out[p] << " vs "
              << sparse_exact;
        }
      }
    }
  }
}

/// Engine-level ISA independence: identical Clusterings whichever
/// kernel set the screens run on.
TEST(SimdKernelsTest, KMeansResultsIndependentOfDispatchedIsa) {
  if (!simd::internal::Avx2Available()) {
    GTEST_SKIP() << "AVX2+FMA not available in this build/CPU";
  }
  test::Blobs blobs = test::MakeBlobs({{0.0, 0.0, 0.0, 0.0},
                                       {6.0, 0.0, 0.0, 0.0},
                                       {0.0, 6.0, 0.0, 0.0},
                                       {0.0, 0.0, 6.0, 0.0},
                                       {3.0, 3.0, 3.0, 3.0}},
                                      60, 1.5, 103);
  KMeansOptions options;
  options.k = 5;
  options.seed = 103;

  Clustering scalar_run;
  {
    ScopedIsa pin(IsaLevel::kScalar);
    auto run = cluster::RunKMeans(blobs.points, options);
    ASSERT_TRUE(run.ok());
    scalar_run = *std::move(run);
  }
  Clustering avx_run;
  {
    ScopedIsa pin(IsaLevel::kAvx2Fma);
    auto run = cluster::RunKMeans(blobs.points, options);
    ASSERT_TRUE(run.ok());
    avx_run = *std::move(run);
  }
  EXPECT_EQ(scalar_run.assignments, avx_run.assignments);
  EXPECT_EQ(scalar_run.sse, avx_run.sse);
  EXPECT_EQ(scalar_run.iterations, avx_run.iterations);
  for (size_t c = 0; c < scalar_run.centroids.rows(); ++c) {
    for (size_t d = 0; d < scalar_run.centroids.cols(); ++d) {
      EXPECT_EQ(scalar_run.centroids.At(c, d), avx_run.centroids.At(c, d));
    }
  }
}

}  // namespace
}  // namespace transform
}  // namespace adahealth
