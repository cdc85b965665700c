// Cluster profiling: turns a clustering of the patient VSM into
// human-readable group descriptions — size, cohesion, and the exams
// that characterize each group both in absolute weight and in *lift*
// over the cohort mean (the latter surfaces the specialized exams that
// distinguish a group even when routine panels dominate everywhere).
#ifndef ADAHEALTH_CLUSTER_PROFILES_H_
#define ADAHEALTH_CLUSTER_PROFILES_H_

#include <vector>

#include "cluster/kmeans.h"
#include "common/status.h"
#include "dataset/exam_log.h"
#include "transform/matrix.h"

namespace adahealth {
namespace cluster {

/// One characterizing exam of a cluster.
struct SignatureExam {
  dataset::ExamTypeId exam = 0;
  /// Mean VSM weight of the exam within the cluster.
  double cluster_mean = 0.0;
  /// Mean VSM weight over the whole cohort.
  double global_mean = 0.0;
  /// cluster_mean / global_mean; > 1 marks over-represented exams.
  /// 0 when the exam is globally absent.
  double lift = 0.0;
};

/// Profile of one cluster.
struct ClusterProfile {
  int32_t cluster = 0;
  int64_t size = 0;
  /// Cosine cohesion of the cluster (||mean of normalized members||^2).
  double cohesion = 0.0;
  /// Exams sorted by descending cluster mean weight (top `top_k`).
  std::vector<SignatureExam> top_by_weight;
  /// Exams sorted by descending lift, among exams with non-trivial
  /// cluster presence (top `top_k`).
  std::vector<SignatureExam> top_by_lift;
};

/// Builds per-cluster profiles from a clustering of `vsm` rows.
/// Requires vsm row/col dims to match the clustering and `log`.
[[nodiscard]] common::StatusOr<std::vector<ClusterProfile>> BuildClusterProfiles(
    const dataset::ExamLog& log, const transform::Matrix& vsm,
    const Clustering& clustering, size_t top_k = 5);

}  // namespace cluster
}  // namespace adahealth

#endif  // ADAHEALTH_CLUSTER_PROFILES_H_
