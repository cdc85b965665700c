#include "transform/matrix.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "transform/simd_kernels.h"

namespace adahealth {
namespace transform {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::At(size_t row, size_t col) {
  ADA_CHECK_LT(row, rows_);
  ADA_CHECK_LT(col, cols_);
  return data_[row * cols_ + col];
}

double Matrix::At(size_t row, size_t col) const {
  ADA_CHECK_LT(row, rows_);
  ADA_CHECK_LT(col, cols_);
  return data_[row * cols_ + col];
}

std::span<double> Matrix::Row(size_t row) {
  ADA_CHECK_LT(row, rows_);
  return std::span<double>(data_.data() + row * cols_, cols_);
}

std::span<const double> Matrix::Row(size_t row) const {
  ADA_CHECK_LT(row, rows_);
  return std::span<const double>(data_.data() + row * cols_, cols_);
}

std::vector<double> Matrix::ColumnMeans() const {
  ADA_CHECK_GT(rows_, 0u);
  std::vector<double> means(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    std::span<const double> row = Row(r);
    for (size_t c = 0; c < cols_; ++c) means[c] += row[c];
  }
  for (double& m : means) m /= static_cast<double>(rows_);
  return means;
}

void Matrix::L2NormalizeRows() {
  for (size_t r = 0; r < rows_; ++r) {
    std::span<double> row = Row(r);
    double norm = Norm(row);
    if (norm <= 0.0) continue;
    for (double& v : row) v /= norm;
  }
}

Matrix Matrix::SelectRows(const std::vector<size_t>& row_ids) const {
  Matrix out(row_ids.size(), cols_);
  for (size_t i = 0; i < row_ids.size(); ++i) {
    ADA_CHECK_LT(row_ids[i], rows_);
    std::span<const double> src = Row(row_ids[i]);
    std::span<double> dst = out.Row(i);
    for (size_t c = 0; c < cols_; ++c) dst[c] = src[c];
  }
  return out;
}

std::vector<double> RowSquaredNorms(const Matrix& m) {
  std::vector<double> norms(m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    norms[r] = simd::SquaredNorm(m.Row(r));
  }
  return norms;
}

double FusedRelativeError(size_t dims) {
  // Each form accumulates O(dims) roundings of terms bounded by
  // ‖x‖² + ‖c‖² (Cauchy–Schwarz bounds every partial product sum);
  // the factor 16 leaves a wide safety margin over the worst case.
  // This covers every reduction order the dispatched kernels can pick
  // (scalar 4-accumulator, AVX2 lanes, sparse per-entry): all of them
  // perform at most O(dims) roundings of the same bounded terms.
  return 16.0 * static_cast<double>(dims + 8) *
         std::numeric_limits<double>::epsilon();
}

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  ADA_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double Dot(std::span<const double> a, std::span<const double> b) {
  ADA_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double Norm(std::span<const double> a) { return std::sqrt(Dot(a, a)); }

double CosineSimilarity(std::span<const double> a,
                        std::span<const double> b) {
  double na = Norm(a);
  double nb = Norm(b);
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

}  // namespace transform
}  // namespace adahealth
