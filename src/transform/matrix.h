// Dense row-major matrix of doubles.
//
// The VSM representation of the paper's cohort (6,380 x 159) fits
// comfortably in dense form; the clustering algorithms operate on this
// type. A CSR companion lives in transform/sparse_matrix.h.
#ifndef ADAHEALTH_TRANSFORM_MATRIX_H_
#define ADAHEALTH_TRANSFORM_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

namespace adahealth {
namespace transform {

/// Row-major dense matrix. Rows are observation vectors (patients).
class Matrix {
 public:
  Matrix() = default;
  /// Creates a rows x cols matrix initialized to `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& At(size_t row, size_t col);
  double At(size_t row, size_t col) const;

  /// Contiguous view of one row.
  std::span<double> Row(size_t row);
  std::span<const double> Row(size_t row) const;

  const std::vector<double>& data() const { return data_; }

  /// Returns the column-wise mean vector. Requires rows() > 0.
  std::vector<double> ColumnMeans() const;

  /// L2-normalizes each row in place; zero rows are left unchanged.
  void L2NormalizeRows();

  /// Returns a copy containing only the rows in `row_ids` (in order).
  Matrix SelectRows(const std::vector<size_t>& row_ids) const;

  friend bool operator==(const Matrix& a, const Matrix& b) = default;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Squared Euclidean distance between two equal-length vectors.
double SquaredDistance(std::span<const double> a, std::span<const double> b);

/// Squared L2 norm of each row of `m` (cached once, reused by the
/// fused distance form across iterations).
std::vector<double> RowSquaredNorms(const Matrix& m);

/// Conservative bound on the relative disagreement (relative to
/// ‖x‖² + ‖c‖²) between the fused form ‖x‖² + ‖c‖² − 2·x·c — computed
/// with any of the dispatched reduction orders of
/// transform/simd_kernels.h or a per-non-zero sparse dot — and
/// SquaredDistance for `dims`-dimensional inputs. Covers the rounding
/// of both forms; exact consumers (cluster/kmeans_accel) pad every
/// fused decision by it.
double FusedRelativeError(size_t dims);

/// Dot product of two equal-length vectors.
double Dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double Norm(std::span<const double> a);

/// Cosine similarity; 0 when either vector is zero.
double CosineSimilarity(std::span<const double> a, std::span<const double> b);

}  // namespace transform
}  // namespace adahealth

#endif  // ADAHEALTH_TRANSFORM_MATRIX_H_
