#include "cluster/outliers.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace adahealth {
namespace cluster {

using common::StatusOr;
using transform::Matrix;
using transform::SquaredDistance;

StatusOr<std::vector<double>> CentroidOutlierScores(
    const Matrix& data, const Clustering& clustering) {
  if (data.rows() != clustering.assignments.size()) {
    return common::InvalidArgumentError(
        "data rows and clustering assignments disagree");
  }
  if (clustering.centroids.cols() != data.cols()) {
    return common::InvalidArgumentError(
        "data and centroid dimensionality disagree");
  }
  const size_t k = clustering.centroids.rows();
  std::vector<double> distances(data.rows());
  std::vector<double> cluster_total(k, 0.0);
  std::vector<int64_t> sizes(k, 0);
  for (size_t i = 0; i < data.rows(); ++i) {
    size_t c = static_cast<size_t>(clustering.assignments[i]);
    if (c >= k) {
      return common::InvalidArgumentError("assignment out of range");
    }
    distances[i] =
        std::sqrt(SquaredDistance(data.Row(i), clustering.centroids.Row(c)));
    cluster_total[c] += distances[i];
    ++sizes[c];
  }
  std::vector<double> scores(data.rows(), 1.0);
  for (size_t i = 0; i < data.rows(); ++i) {
    size_t c = static_cast<size_t>(clustering.assignments[i]);
    double mean = sizes[c] > 0
                      ? cluster_total[c] / static_cast<double>(sizes[c])
                      : 0.0;
    scores[i] = mean > 0.0 ? distances[i] / mean : 1.0;
  }
  return scores;
}

std::vector<size_t> TopOutliers(const std::vector<double>& scores,
                                size_t count) {
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  order.resize(std::min(count, order.size()));
  return order;
}

}  // namespace cluster
}  // namespace adahealth
