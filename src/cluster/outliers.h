// Distance-based outlier detection over the patient VSM.
//
// The paper notes that rarely prescribed exams "could affect other
// types of analyses such as outlier detection" (§IV-B); this module
// provides the centroid-relative score such an analysis would use:
// distance to the assigned centroid normalized by the cluster's mean
// distance.
#ifndef ADAHEALTH_CLUSTER_OUTLIERS_H_
#define ADAHEALTH_CLUSTER_OUTLIERS_H_

#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "common/status.h"
#include "transform/matrix.h"

namespace adahealth {
namespace cluster {

/// Per-row outlier scores relative to a clustering: distance to the
/// assigned centroid divided by the mean such distance within the
/// cluster (1.0 = typical member; singletons and zero-spread clusters
/// score 1.0). Requires assignments to match `data`.
[[nodiscard]] common::StatusOr<std::vector<double>> CentroidOutlierScores(
    const transform::Matrix& data, const Clustering& clustering);

/// Indices of the `count` largest scores, descending (ties by index).
std::vector<size_t> TopOutliers(const std::vector<double>& scores,
                                size_t count);

}  // namespace cluster
}  // namespace adahealth

#endif  // ADAHEALTH_CLUSTER_OUTLIERS_H_
