#include "cluster/quality.h"

#include "common/check.h"

namespace adahealth {
namespace cluster {

using transform::CosineSimilarity;
using transform::Matrix;
using transform::Norm;

double OverallSimilarity(const Matrix& data,
                         const std::vector<int32_t>& assignments,
                         int32_t k) {
  ADA_CHECK_EQ(assignments.size(), data.rows());
  ADA_CHECK_GE(k, 1);
  if (data.rows() == 0) return 0.0;
  const size_t dims = data.cols();

  // Sum of cosine-normalized members per cluster.
  Matrix normalized_sums(static_cast<size_t>(k), dims, 0.0);
  std::vector<int64_t> sizes(static_cast<size_t>(k), 0);
  for (size_t i = 0; i < data.rows(); ++i) {
    int32_t c = assignments[i];
    ADA_CHECK_GE(c, 0);
    ADA_CHECK_LT(c, k);
    ++sizes[static_cast<size_t>(c)];
    std::span<const double> point = data.Row(i);
    double norm = Norm(point);
    if (norm <= 0.0) continue;  // Zero vectors contribute no similarity.
    std::span<double> sum = normalized_sums.Row(static_cast<size_t>(c));
    for (size_t d = 0; d < dims; ++d) sum[d] += point[d] / norm;
  }

  double overall = 0.0;
  const double total = static_cast<double>(data.rows());
  for (size_t c = 0; c < static_cast<size_t>(k); ++c) {
    if (sizes[c] == 0) continue;
    std::span<const double> sum = normalized_sums.Row(c);
    double norm_squared = 0.0;
    for (size_t d = 0; d < dims; ++d) norm_squared += sum[d] * sum[d];
    const double n = static_cast<double>(sizes[c]);
    // (n/N) * ||sum||^2 / n^2 == ||sum||^2 / (n * N).
    overall += norm_squared / (n * total);
  }
  return overall;
}

double OverallSimilarityExact(const Matrix& data,
                              const std::vector<int32_t>& assignments,
                              int32_t k) {
  ADA_CHECK_EQ(assignments.size(), data.rows());
  ADA_CHECK_GE(k, 1);
  if (data.rows() == 0) return 0.0;
  double overall = 0.0;
  const double total = static_cast<double>(data.rows());
  for (int32_t c = 0; c < k; ++c) {
    std::vector<size_t> members;
    for (size_t i = 0; i < data.rows(); ++i) {
      if (assignments[i] == c) members.push_back(i);
    }
    if (members.empty()) continue;
    double pair_sum = 0.0;
    for (size_t a : members) {
      for (size_t b : members) {
        pair_sum += CosineSimilarity(data.Row(a), data.Row(b));
      }
    }
    const double n = static_cast<double>(members.size());
    overall += (n / total) * (pair_sum / (n * n));
  }
  return overall;
}

}  // namespace cluster
}  // namespace adahealth
