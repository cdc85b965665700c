#include "transform/sparse_matrix.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>
#include "common/rng.h"

namespace adahealth {
namespace transform {
namespace {

CsrMatrix MakeMatrix() {
  CsrMatrix::Builder builder(4);
  EXPECT_TRUE(builder.AddRow({{0, 1.0}, {2, 2.0}}).ok());
  EXPECT_TRUE(builder.AddRow({}).ok());
  EXPECT_TRUE(builder.AddRow({{1, 3.0}, {2, 4.0}, {3, 5.0}}).ok());
  return std::move(builder).Build();
}

/// Random dense matrix with roughly `density` non-zeros; a negative
/// seed row index can be forced all-zero by the caller afterwards.
Matrix RandomSparseDense(common::Rng& rng, size_t rows, size_t cols,
                         double density) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (rng.UniformDouble() < density) m.At(r, c) = rng.Normal(0.0, 2.0);
    }
  }
  return m;
}

TEST(CsrMatrixTest, Shape) {
  CsrMatrix m = MakeMatrix();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.num_nonzeros(), 5u);
}

TEST(CsrMatrixTest, DefaultConstructedIsEmpty) {
  CsrMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_EQ(m.num_nonzeros(), 0u);
  EXPECT_DOUBLE_EQ(m.Density(), 0.0);
}

TEST(CsrMatrixTest, RowAccess) {
  CsrMatrix m = MakeMatrix();
  auto row0 = m.Row(0);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_EQ(row0[0].column, 0u);
  EXPECT_DOUBLE_EQ(row0[1].value, 2.0);
  EXPECT_EQ(m.Row(1).size(), 0u);
}

TEST(CsrMatrixTest, BuilderDropsExplicitZeros) {
  CsrMatrix::Builder builder(2);
  ASSERT_TRUE(builder.AddRow({{0, 0.0}, {1, 1.0}}).ok());
  CsrMatrix m = std::move(builder).Build();
  EXPECT_EQ(m.num_nonzeros(), 1u);
}

TEST(CsrMatrixTest, AddRowRejectsOutOfRangeColumn) {
  CsrMatrix::Builder builder(3);
  common::Status status = builder.AddRow({{0, 1.0}, {3, 2.0}});
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
}

TEST(CsrMatrixTest, AddRowRejectsNonIncreasingColumns) {
  CsrMatrix::Builder builder(4);
  common::Status unsorted = builder.AddRow({{2, 1.0}, {1, 2.0}});
  EXPECT_EQ(unsorted.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(unsorted.message().find("strictly increasing"),
            std::string::npos);
  common::Status duplicate = builder.AddRow({{1, 1.0}, {1, 2.0}});
  EXPECT_EQ(duplicate.code(), common::StatusCode::kInvalidArgument);
}

TEST(CsrMatrixTest, AddRowRejectsNaN) {
  CsrMatrix::Builder builder(2);
  common::Status status =
      builder.AddRow({{0, std::numeric_limits<double>::quiet_NaN()}});
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("NaN"), std::string::npos);
}

TEST(CsrMatrixTest, RejectedRowLeavesBuilderUsable) {
  // A failed AddRow must append nothing — no entries, no row — so the
  // caller can fix the row and continue building.
  CsrMatrix::Builder builder(3);
  ASSERT_TRUE(builder.AddRow({{0, 1.0}}).ok());
  EXPECT_FALSE(builder.AddRow({{2, 5.0}, {1, 6.0}}).ok());
  ASSERT_TRUE(builder.AddRow({{1, 6.0}, {2, 5.0}}).ok());
  CsrMatrix m = std::move(builder).Build();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.num_nonzeros(), 3u);
  EXPECT_EQ(m.Row(1)[0].column, 1u);
}

TEST(CsrMatrixTest, InfinityIsAcceptedOnlyNaNIsRejected) {
  // Infinities propagate through distance arithmetic deterministically;
  // only NaN (which poisons comparisons) is rejected.
  CsrMatrix::Builder builder(2);
  EXPECT_TRUE(
      builder.AddRow({{0, std::numeric_limits<double>::infinity()}}).ok());
}

TEST(CsrMatrixTest, DenseRoundTrip) {
  CsrMatrix m = MakeMatrix();
  Matrix dense = m.ToDense();
  EXPECT_DOUBLE_EQ(dense.At(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(dense.At(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(dense.At(2, 3), 5.0);
  CsrMatrix back = CsrMatrix::FromDense(dense);
  EXPECT_EQ(back.num_nonzeros(), m.num_nonzeros());
  for (size_t r = 0; r < m.rows(); ++r) {
    auto a = m.Row(r);
    auto b = back.Row(r);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(CsrMatrixTest, FromDenseDropsNegativeZero) {
  Matrix dense(1, 3);
  dense.At(0, 0) = -0.0;
  dense.At(0, 2) = 4.0;
  CsrMatrix m = CsrMatrix::FromDense(dense);
  EXPECT_EQ(m.num_nonzeros(), 1u);
  // The densified round trip normalizes -0.0 to +0.0 (they compare
  // equal; only the bit pattern differs).
  EXPECT_FALSE(std::signbit(m.ToDense().At(0, 0)));
}

TEST(CsrMatrixDeathTest, FromDenseChecksOnNaN) {
  Matrix dense(2, 2);
  dense.At(1, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(CsrMatrix::FromDense(dense), "ADA_CHECK failed");
}

TEST(CsrMatrixTest, Density) {
  CsrMatrix m = MakeMatrix();
  EXPECT_DOUBLE_EQ(m.Density(), 5.0 / 12.0);
}

// Dot product of two sparse rows (two-pointer merge).
double SparseDot(std::span<const SparseEntry> a,
                 std::span<const SparseEntry> b) {
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].column == b[j].column) {
      sum += a[i].value * b[j].value;
      ++i;
      ++j;
    } else if (a[i].column < b[j].column) {
      ++i;
    } else {
      ++j;
    }
  }
  return sum;
}

// Cosine similarity of two sparse rows; 0 when either is empty.
double SparseCosineSimilarity(std::span<const SparseEntry> a,
                              std::span<const SparseEntry> b) {
  double norm_a = 0.0;
  for (const SparseEntry& entry : a) norm_a += entry.value * entry.value;
  double norm_b = 0.0;
  for (const SparseEntry& entry : b) norm_b += entry.value * entry.value;
  if (norm_a <= 0.0 || norm_b <= 0.0) return 0.0;
  return SparseDot(a, b) / std::sqrt(norm_a * norm_b);
}

TEST(SparseOpsTest, SparseDotMergesColumns) {
  CsrMatrix m = MakeMatrix();
  // Row 0 = [1,0,2,0], row 2 = [0,3,4,5] -> dot = 8.
  EXPECT_DOUBLE_EQ(SparseDot(m.Row(0), m.Row(2)), 8.0);
  EXPECT_DOUBLE_EQ(SparseDot(m.Row(0), m.Row(1)), 0.0);
}

TEST(SparseOpsTest, CosineMatchesDense) {
  CsrMatrix m = MakeMatrix();
  Matrix dense = m.ToDense();
  EXPECT_NEAR(SparseCosineSimilarity(m.Row(0), m.Row(2)),
              CosineSimilarity(dense.Row(0), dense.Row(2)), 1e-12);
  EXPECT_DOUBLE_EQ(SparseCosineSimilarity(m.Row(0), m.Row(1)), 0.0);
}

// --- Clustering batch kernels -------------------------------------------

TEST(SparseKernelTest, RowSquaredNormsMatchDenseArithmetic) {
  common::Rng rng(71);
  Matrix dense = RandomSparseDense(rng, 20, 15, 0.3);
  CsrMatrix m = CsrMatrix::FromDense(dense);
  std::vector<double> norms = RowSquaredNorms(m);
  ASSERT_EQ(norms.size(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    // Same v*v terms folded sequentially; the dense zeros contribute
    // exact +0.0 terms, so the sparse sum is bit-identical.
    double expected = 0.0;
    for (double v : dense.Row(r)) expected += v * v;
    EXPECT_EQ(norms[r], expected) << "row " << r;
  }
}

TEST(SparseKernelTest, SparseSquaredDistanceBitIdenticalToDense) {
  common::Rng rng(73);
  for (double density : {0.0, 0.05, 0.3, 0.7, 1.0}) {
    Matrix dense = RandomSparseDense(rng, 12, 33, density);
    CsrMatrix m = CsrMatrix::FromDense(dense);
    std::vector<double> target(33);
    for (double& v : target) v = rng.Normal(0.0, 3.0);
    for (size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(SparseSquaredDistance(m.Row(r), target),
                SquaredDistance(dense.Row(r), target))
          << "density " << density << " row " << r;
    }
  }
}

TEST(SparseKernelTest, SparseSquaredDistanceToAllWithinFusedEnvelope) {
  common::Rng rng(79);
  const size_t dims = 48;
  const size_t k = 7;
  Matrix dense = RandomSparseDense(rng, 10, dims, 0.2);
  CsrMatrix m = CsrMatrix::FromDense(dense);
  Matrix centroids(k, dims);
  for (size_t c = 0; c < k; ++c) {
    for (size_t d = 0; d < dims; ++d) {
      centroids.At(c, d) = rng.Normal(0.0, 2.0);
    }
  }
  Matrix centroids_t(dims, k);
  std::vector<double> centroid_norms(k);
  for (size_t c = 0; c < k; ++c) {
    centroid_norms[c] = Dot(centroids.Row(c), centroids.Row(c));
    for (size_t d = 0; d < dims; ++d) {
      centroids_t.At(d, c) = centroids.At(c, d);
    }
  }
  std::vector<double> norms = RowSquaredNorms(m);
  std::vector<double> fused(k);
  const double rel = FusedRelativeError(dims);
  for (size_t r = 0; r < m.rows(); ++r) {
    SparseSquaredDistanceToAll(m.Row(r), norms[r], centroids_t,
                               centroid_norms, fused);
    for (size_t c = 0; c < k; ++c) {
      const double exact = SquaredDistance(dense.Row(r), centroids.Row(c));
      const double margin = rel * (norms[r] + centroid_norms[c]);
      EXPECT_NEAR(fused[c], exact, margin)
          << "row " << r << " centroid " << c;
    }
  }
}

TEST(SparseKernelTest, AccumulateRowBitIdenticalToDenseSum) {
  common::Rng rng(83);
  Matrix dense = RandomSparseDense(rng, 8, 21, 0.4);
  CsrMatrix m = CsrMatrix::FromDense(dense);
  std::vector<double> sparse_sum(21, 0.0);
  std::vector<double> dense_sum(21, 0.0);
  for (size_t r = 0; r < m.rows(); ++r) {
    AccumulateRow(m.Row(r), sparse_sum);
    std::span<const double> row = dense.Row(r);
    for (size_t d = 0; d < 21; ++d) dense_sum[d] += row[d];
  }
  for (size_t d = 0; d < 21; ++d) {
    EXPECT_EQ(sparse_sum[d], dense_sum[d]) << "dim " << d;
  }
}

TEST(SparseKernelTest, DensifyRowScattersAndZeroFills) {
  CsrMatrix m = MakeMatrix();
  std::vector<double> out(4, 99.0);
  DensifyRow(m.Row(0), out);
  EXPECT_EQ(out, (std::vector<double>{1.0, 0.0, 2.0, 0.0}));
  DensifyRow(m.Row(1), out);
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0, 0.0, 0.0}));
}

}  // namespace
}  // namespace transform
}  // namespace adahealth
