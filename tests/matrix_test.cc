#include "transform/matrix.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>
#include "common/rng.h"
#include "transform/simd_kernels.h"

namespace adahealth {
namespace transform {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
  m.At(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m.At(0, 1), 7.0);
}

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(MatrixTest, RowSpanIsContiguousView) {
  Matrix m(2, 2);
  m.At(1, 0) = 3.0;
  std::span<double> row = m.Row(1);
  row[1] = 4.0;
  EXPECT_DOUBLE_EQ(m.At(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 4.0);
}

TEST(MatrixTest, ColumnMeans) {
  Matrix m(2, 2);
  m.At(0, 0) = 1.0;
  m.At(0, 1) = 2.0;
  m.At(1, 0) = 3.0;
  m.At(1, 1) = 4.0;
  std::vector<double> means = m.ColumnMeans();
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 3.0);
}

TEST(MatrixTest, L2NormalizeRows) {
  Matrix m(2, 2);
  m.At(0, 0) = 3.0;
  m.At(0, 1) = 4.0;
  // Row 1 stays zero.
  m.L2NormalizeRows();
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.6);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
}

TEST(MatrixTest, SelectRows) {
  Matrix m(3, 2);
  for (size_t r = 0; r < 3; ++r) m.At(r, 0) = static_cast<double>(r);
  Matrix selected = m.SelectRows({2, 0});
  EXPECT_EQ(selected.rows(), 2u);
  EXPECT_DOUBLE_EQ(selected.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(selected.At(1, 0), 0.0);
}

// A copy of `m` containing only the columns in `col_ids` (in order).
Matrix SelectColumns(const Matrix& m, const std::vector<size_t>& col_ids) {
  Matrix out(m.rows(), col_ids.size());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < col_ids.size(); ++c) {
      out.At(r, c) = m.At(r, col_ids[c]);
    }
  }
  return out;
}

TEST(MatrixTest, SelectColumns) {
  Matrix m(2, 3);
  for (size_t c = 0; c < 3; ++c) m.At(0, c) = static_cast<double>(c * 10);
  Matrix selected = SelectColumns(m, {2, 1});
  EXPECT_EQ(selected.cols(), 2u);
  EXPECT_DOUBLE_EQ(selected.At(0, 0), 20.0);
  EXPECT_DOUBLE_EQ(selected.At(0, 1), 10.0);
}

TEST(VectorOpsTest, SquaredDistance) {
  std::vector<double> a{0.0, 3.0};
  std::vector<double> b{4.0, 0.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, a), 0.0);
}

TEST(VectorOpsTest, DotAndNorm) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(Norm(std::vector<double>{3.0, 4.0}), 5.0);
}

TEST(VectorOpsTest, CosineSimilarity) {
  std::vector<double> a{1.0, 0.0};
  std::vector<double> b{0.0, 1.0};
  std::vector<double> c{2.0, 0.0};
  std::vector<double> zero{0.0, 0.0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, c), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, zero), 0.0);
}

TEST(FusedKernelTest, RowSquaredNormsMatchDotWithinEnvelope) {
  // RowSquaredNorms routes through the runtime-dispatched SIMD kernel,
  // whose reassociated reduction may differ from the scalar Dot by the
  // documented fused-error envelope (it feeds only error-bounded
  // screens, never exact arithmetic).
  common::Rng rng(61);
  Matrix m(7, 13);
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) m.At(r, c) = rng.Normal(0.0, 3.0);
  }
  std::vector<double> norms = RowSquaredNorms(m);
  ASSERT_EQ(norms.size(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    const double exact = Dot(m.Row(r), m.Row(r));
    EXPECT_NEAR(norms[r], exact, FusedRelativeError(m.cols()) * exact);
  }
}

TEST(FusedKernelTest, FusedFormWithinDocumentedError) {
  // The fused ‖x‖² + ‖c‖² − 2·x·c form, as the accelerated k-means
  // bound tighten computes it (dispatched SIMD dot and norms), rounds
  // differently than the naive Σ(x−c)², but its deviation must stay
  // inside the bound the tighten pads by: fused + err is never below
  // the exact value.
  common::Rng rng(67);
  for (size_t dims : {1u, 3u, 4u, 17u, 64u, 159u}) {
    Matrix centroids(9, dims);
    std::vector<double> point(dims);
    for (size_t d = 0; d < dims; ++d) point[d] = rng.Normal(1.0, 4.0);
    for (size_t c = 0; c < centroids.rows(); ++c) {
      for (size_t d = 0; d < dims; ++d) {
        centroids.At(c, d) = rng.Normal(-1.0, 4.0);
      }
    }
    // A near-duplicate row stresses catastrophic cancellation, the
    // worst case for the fused form.
    for (size_t d = 0; d < dims; ++d) {
      centroids.At(8, d) = point[d] * (1.0 + 1e-14);
    }
    const double point_norm2 = simd::SquaredNorm(point);
    std::vector<double> centroid_norms = RowSquaredNorms(centroids);
    for (size_t c = 0; c < centroids.rows(); ++c) {
      const double fused =
          point_norm2 + centroid_norms[c] -
          2.0 * simd::DotProduct(point, centroids.Row(c));
      const double exact = SquaredDistance(point, centroids.Row(c));
      const double budget =
          FusedRelativeError(dims) * (point_norm2 + centroid_norms[c]);
      EXPECT_LE(std::abs(fused - exact), budget)
          << "dims=" << dims << " c=" << c;
    }
  }
}

}  // namespace
}  // namespace transform
}  // namespace adahealth
