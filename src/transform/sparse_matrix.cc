#include "transform/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "transform/simd_kernels.h"

namespace adahealth {
namespace transform {

common::Status CsrMatrix::Builder::AddRow(
    const std::vector<SparseEntry>& entries) {
  // Validate the whole row before touching the arrays so a rejected
  // row leaves the builder exactly as it was.
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].column >= cols_) {
      return common::InvalidArgumentError(
          "sparse row entry column " + std::to_string(entries[i].column) +
          " out of range (cols=" + std::to_string(cols_) + ")");
    }
    if (i > 0 && entries[i].column <= entries[i - 1].column) {
      return common::InvalidArgumentError(
          "sparse row columns must be strictly increasing (column " +
          std::to_string(entries[i].column) + " after " +
          std::to_string(entries[i - 1].column) + ")");
    }
    if (std::isnan(entries[i].value)) {
      return common::InvalidArgumentError(
          "sparse row entry at column " +
          std::to_string(entries[i].column) + " is NaN");
    }
  }
  for (const SparseEntry& entry : entries) {
    if (entry.value != 0.0) entries_.push_back(entry);
  }
  row_offsets_.push_back(entries_.size());
  return common::OkStatus();
}

CsrMatrix CsrMatrix::Builder::Build() && {
  return CsrMatrix(cols_, std::move(row_offsets_), std::move(entries_));
}

std::span<const SparseEntry> CsrMatrix::Row(size_t row) const {
  ADA_CHECK_LT(row, rows());
  return std::span<const SparseEntry>(
      entries_.data() + row_offsets_[row],
      row_offsets_[row + 1] - row_offsets_[row]);
}

Matrix CsrMatrix::ToDense() const {
  Matrix dense(rows(), cols_);
  for (size_t r = 0; r < rows(); ++r) {
    for (const SparseEntry& entry : Row(r)) {
      dense.At(r, entry.column) = entry.value;
    }
  }
  return dense;
}

CsrMatrix CsrMatrix::FromDense(const Matrix& dense) {
  Builder builder(dense.cols());
  std::vector<SparseEntry> row_entries;
  for (size_t r = 0; r < dense.rows(); ++r) {
    row_entries.clear();
    std::span<const double> row = dense.Row(r);
    for (size_t c = 0; c < dense.cols(); ++c) {
      if (row[c] != 0.0) {
        row_entries.push_back({static_cast<uint32_t>(c), row[c]});
      }
    }
    // Columns are increasing and in range by construction; only a NaN
    // cell can fail, which is a caller error here (screen first).
    ADA_CHECK_OK(builder.AddRow(row_entries));
  }
  return std::move(builder).Build();
}

double CsrMatrix::Density() const {
  double cells = static_cast<double>(rows()) * static_cast<double>(cols_);
  return cells > 0.0 ? static_cast<double>(entries_.size()) / cells : 0.0;
}

std::vector<double> RowSquaredNorms(const CsrMatrix& m) {
  std::vector<double> norms(m.rows(), 0.0);
  for (size_t r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (const SparseEntry& entry : m.Row(r)) {
      sum += entry.value * entry.value;
    }
    norms[r] = sum;
  }
  return norms;
}

double SparseSquaredDistance(std::span<const SparseEntry> row,
                             std::span<const double> dense) {
  // One sequential accumulator folding a term per dimension in order —
  // the exact operation sequence of the dense SquaredDistance. For the
  // zero dimensions between non-zeros, (0.0 - b) * (0.0 - b) == b * b
  // in IEEE-754 (negation flips only the sign bit; the product's sign
  // bits cancel), so the run loop skips materializing the subtraction.
  double sum = 0.0;
  size_t d = 0;
  for (const SparseEntry& entry : row) {
    ADA_CHECK_LT(entry.column, dense.size());
    for (; d < entry.column; ++d) sum += dense[d] * dense[d];
    const double diff = entry.value - dense[d];
    sum += diff * diff;
    ++d;
  }
  for (; d < dense.size(); ++d) sum += dense[d] * dense[d];
  return sum;
}

void SparseSquaredDistanceToAll(std::span<const SparseEntry> row,
                                double row_norm2, const Matrix& centroids_t,
                                std::span<const double> centroid_norms2,
                                std::span<double> out) {
  const size_t k = centroids_t.cols();
  ADA_CHECK_EQ(centroid_norms2.size(), k);
  ADA_CHECK_GE(out.size(), k);
  std::span<double> acc = out.subspan(0, k);
  std::fill(acc.begin(), acc.end(), 0.0);
  if (k < 16) {
    // Below ~2 vector widths the per-entry dispatch call costs more
    // than the handful of multiply-adds it would vectorize; inline the
    // scalar loop (still within the FusedRelativeError envelope).
    for (const SparseEntry& entry : row) {
      ADA_CHECK_LT(entry.column, centroids_t.rows());
      const double v = entry.value;
      std::span<const double> col = centroids_t.Row(entry.column);
      for (size_t c = 0; c < k; ++c) acc[c] += v * col[c];
    }
  } else {
    for (const SparseEntry& entry : row) {
      ADA_CHECK_LT(entry.column, centroids_t.rows());
      // Row `column` of the transposed block is the k centroid values
      // of that dimension, contiguous — a SIMD-friendly axpy per
      // non-zero.
      simd::Axpy(entry.value, centroids_t.Row(entry.column), acc);
    }
  }
  for (size_t c = 0; c < k; ++c) {
    out[c] = row_norm2 + centroid_norms2[c] - 2.0 * out[c];
  }
}

void AccumulateRow(std::span<const SparseEntry> row, std::span<double> sum) {
  for (const SparseEntry& entry : row) {
    ADA_CHECK_LT(entry.column, sum.size());
    sum[entry.column] += entry.value;
  }
}

void DensifyRow(std::span<const SparseEntry> row, std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  for (const SparseEntry& entry : row) {
    ADA_CHECK_LT(entry.column, out.size());
    out[entry.column] = entry.value;
  }
}

}  // namespace transform
}  // namespace adahealth
