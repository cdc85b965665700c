// Compressed sparse row (CSR) matrix.
//
// The paper stresses that medical logs are "inherently sparse"; the
// VSM of a large cohort is mostly zeros. CsrMatrix stores only the
// non-zero entries and supports the distance/similarity kernels needed
// by clustering: a fused error-bounded screen over dense centroids,
// an exact squared distance that is bit-identical to the dense scalar
// formula, and gather/scatter helpers for the centroid reduction.
#ifndef ADAHEALTH_TRANSFORM_SPARSE_MATRIX_H_
#define ADAHEALTH_TRANSFORM_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "transform/matrix.h"

namespace adahealth {
namespace transform {

/// Default nnz-density threshold at or below which the CSR
/// representation beats dense for the clustering kernels. The fused
/// screen does O(nnz) work per centroid instead of O(dims), but each
/// sparse entry costs ~3x a dense lane (scattered accumulation vs a
/// contiguous SIMD dot), so the measured crossover against the
/// dispatched dense kernels sits near 10% — comfortably above the
/// paper cohort's ~7% density. transform/vsm and cluster/kmeans both
/// key their auto-selection off this value.
inline constexpr double kDefaultSparseDensityThreshold = 0.10;

/// One non-zero entry of a sparse row.
struct SparseEntry {
  uint32_t column = 0;
  double value = 0.0;

  friend bool operator==(const SparseEntry& a, const SparseEntry& b) = default;
};

/// Immutable CSR matrix built row by row.
class CsrMatrix {
 public:
  /// An empty 0 x 0 matrix (so the type can sit in result structs that
  /// populate it conditionally).
  CsrMatrix() = default;

  /// Incremental builder; append rows in order.
  class Builder {
   public:
    explicit Builder(size_t cols) : cols_(cols) {}

    /// Appends a row given (column, value) pairs. Returns
    /// INVALID_ARGUMENT — and appends nothing — when a column is out
    /// of range (>= cols), columns are not strictly increasing, or a
    /// value is NaN; the builder stays usable for further rows. Zero
    /// values are dropped.
    [[nodiscard]] common::Status AddRow(
        const std::vector<SparseEntry>& entries);

    CsrMatrix Build() &&;

   private:
    size_t cols_;
    std::vector<size_t> row_offsets_{0};
    std::vector<SparseEntry> entries_;
  };

  size_t rows() const { return row_offsets_.size() - 1; }
  size_t cols() const { return cols_; }
  size_t num_nonzeros() const { return entries_.size(); }

  /// Entries of row `row` as a contiguous span.
  std::span<const SparseEntry> Row(size_t row) const;

  /// Converts to a dense matrix.
  Matrix ToDense() const;

  /// Builds from a dense matrix, dropping zeros (including negative
  /// zeros, which densify back as +0.0). CHECK-fails on NaN cells —
  /// callers converting possibly-unsanitized data must screen first.
  static CsrMatrix FromDense(const Matrix& dense);

  /// Fraction of cells that are non-zero.
  double Density() const;

 private:
  CsrMatrix(size_t cols, std::vector<size_t> row_offsets,
            std::vector<SparseEntry> entries)
      : cols_(cols),
        row_offsets_(std::move(row_offsets)),
        entries_(std::move(entries)) {}

  size_t cols_ = 0;
  std::vector<size_t> row_offsets_{0};
  std::vector<SparseEntry> entries_;
};

// --- Clustering batch kernels -------------------------------------------
//
// These power the sparse k-means path (cluster/kmeans*). The fused
// form is an error-bounded screen; the exact form reproduces the dense
// scalar arithmetic bit for bit so engine results stay identical across
// representations.

/// ‖row‖² of every row (sum of squared non-zeros, in column order).
std::vector<double> RowSquaredNorms(const CsrMatrix& m);

/// Exact squared Euclidean distance from a sparse row to a dense
/// vector, bit-identical to SquaredDistance(densified_row, dense):
/// the same (a[d] - b[d]) * (a[d] - b[d]) terms folded into the same
/// sequential accumulator in the same dimension order (a zero a[d]
/// contributes b[d]*b[d], which IEEE-754 guarantees equals
/// (0.0 - b[d]) * (0.0 - b[d])). `row` columns must be < dense.size().
double SparseSquaredDistance(std::span<const SparseEntry> row,
                             std::span<const double> dense);

/// Fused batch distance screen: writes into `out[c]` the value
/// ‖row‖² + ‖c‖² − 2·row·c against every column c of `centroids_t`,
/// the TRANSPOSED (dims x k) centroid block. Transposing turns the
/// per-entry gather into a contiguous k-wide axpy, which the SIMD
/// dispatcher vectorizes. Error-bounded: consumers needing exact
/// distances re-check within the FusedRelativeError(dims) margin. `out` must have
/// centroids_t.cols() capacity and is fully overwritten.
void SparseSquaredDistanceToAll(std::span<const SparseEntry> row,
                                double row_norm2, const Matrix& centroids_t,
                                std::span<const double> centroid_norms2,
                                std::span<double> out);

/// Sparse-gather accumulation: `sum[column] += value` for every entry.
/// Adding only the non-zeros is bit-identical to the dense row-sum
/// because a dense accumulation's remaining `+= 0.0` terms cannot
/// change any finite sum. `row` columns must be < sum.size().
void AccumulateRow(std::span<const SparseEntry> row, std::span<double> sum);

/// Scatters a sparse row into `out`: zero-fills, then assigns the
/// non-zeros. `out.size()` must equal the matrix column count.
void DensifyRow(std::span<const SparseEntry> row, std::span<double> out);

}  // namespace transform
}  // namespace adahealth

#endif  // ADAHEALTH_TRANSFORM_SPARSE_MATRIX_H_
