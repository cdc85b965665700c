#include "cluster/profiles.h"

#include <algorithm>
#include <numeric>


namespace adahealth {
namespace cluster {

using common::StatusOr;
using transform::Matrix;

StatusOr<std::vector<ClusterProfile>> BuildClusterProfiles(
    const dataset::ExamLog& log, const Matrix& vsm,
    const Clustering& clustering, size_t top_k) {
  if (vsm.rows() != clustering.assignments.size()) {
    return common::InvalidArgumentError(
        "vsm rows and clustering assignments disagree");
  }
  if (vsm.cols() != log.num_exam_types()) {
    return common::InvalidArgumentError(
        "vsm columns and exam dictionary disagree");
  }
  if (clustering.k < 1) {
    return common::InvalidArgumentError("clustering has no clusters");
  }

  const size_t k = static_cast<size_t>(clustering.k);
  const size_t dims = vsm.cols();
  std::vector<double> global_mean = vsm.ColumnMeans();

  // Per-cluster mean weights and cosine cohesion accumulators.
  Matrix cluster_sums(k, dims, 0.0);
  Matrix normalized_sums(k, dims, 0.0);
  std::vector<int64_t> sizes(k, 0);
  for (size_t i = 0; i < vsm.rows(); ++i) {
    size_t c = static_cast<size_t>(clustering.assignments[i]);
    ++sizes[c];
    std::span<const double> row = vsm.Row(i);
    std::span<double> sum = cluster_sums.Row(c);
    for (size_t d = 0; d < dims; ++d) sum[d] += row[d];
    double norm = transform::Norm(row);
    if (norm > 0.0) {
      std::span<double> normalized = normalized_sums.Row(c);
      for (size_t d = 0; d < dims; ++d) normalized[d] += row[d] / norm;
    }
  }

  std::vector<ClusterProfile> profiles;
  profiles.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    ClusterProfile profile;
    profile.cluster = static_cast<int32_t>(c);
    profile.size = sizes[c];
    if (sizes[c] == 0) {
      profiles.push_back(std::move(profile));
      continue;
    }
    std::span<const double> normalized = normalized_sums.Row(c);
    double norm_squared = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      norm_squared += normalized[d] * normalized[d];
    }
    profile.cohesion = norm_squared / (static_cast<double>(sizes[c]) *
                                       static_cast<double>(sizes[c]));

    std::vector<SignatureExam> exams(dims);
    std::span<const double> sum = cluster_sums.Row(c);
    for (size_t d = 0; d < dims; ++d) {
      SignatureExam& exam = exams[d];
      exam.exam = static_cast<dataset::ExamTypeId>(d);
      exam.cluster_mean = sum[d] / static_cast<double>(sizes[c]);
      exam.global_mean = global_mean[d];
      exam.lift = exam.global_mean > 0.0
                      ? exam.cluster_mean / exam.global_mean
                      : 0.0;
    }

    std::vector<size_t> order(dims);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return exams[a].cluster_mean > exams[b].cluster_mean;
    });
    for (size_t r = 0; r < std::min(top_k, dims); ++r) {
      if (exams[order[r]].cluster_mean <= 0.0) break;
      profile.top_by_weight.push_back(exams[order[r]]);
    }

    // Lift ranking over exams with real presence in the cluster (at
    // least 10% of the cluster's strongest exam weight) so that noise
    // on near-absent exams cannot dominate.
    double presence_floor =
        profile.top_by_weight.empty()
            ? 0.0
            : 0.1 * profile.top_by_weight.front().cluster_mean;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return exams[a].lift > exams[b].lift;
    });
    for (size_t r = 0; r < dims && profile.top_by_lift.size() < top_k;
         ++r) {
      const SignatureExam& exam = exams[order[r]];
      if (exam.cluster_mean >= presence_floor && exam.lift > 0.0) {
        profile.top_by_lift.push_back(exam);
      }
    }
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

}  // namespace cluster
}  // namespace adahealth
