// Clustering quality: overall similarity, one of the paper's two
// interestingness metrics, which "measures the cluster cohesiveness by
// computing the internal pairwise similarity of patients within each
// cluster, and then taking the weighted sum over the whole cluster set"
// (§IV-A, citing Tan/Steinbach/Kumar [4]). The other, SSE, "the total
// sum of squared errors", is reported by k-means itself
// (Clustering::sse).
#ifndef ADAHEALTH_CLUSTER_QUALITY_H_
#define ADAHEALTH_CLUSTER_QUALITY_H_

#include <cstdint>
#include <vector>

#include "transform/matrix.h"

namespace adahealth {
namespace cluster {

/// Overall similarity (Tan/Steinbach/Kumar): the weighted sum over
/// clusters of the average pairwise cosine similarity within the
/// cluster, weights proportional to cluster size:
///
///   OS = sum_i (n_i / N) * (1 / n_i^2) * sum_{x,y in C_i} cos(x, y)
///
/// Rows are cosine-normalized internally, after which the inner double
/// sum collapses to ||mean of normalized members||^2, making the index
/// O(N * dims). Self-pairs are included, matching [4]. Result in
/// (0, 1]; higher is more cohesive.
double OverallSimilarity(const transform::Matrix& data,
                         const std::vector<int32_t>& assignments, int32_t k);

/// Reference O(N^2) implementation of OverallSimilarity used to verify
/// the closed form in tests. Prefer OverallSimilarity in real code.
// ada-lint: allow(unreached-symbol) oracle of quality_test's
// OverallSimilarityTest.ClosedFormMatchesExactPairwise.
double OverallSimilarityExact(const transform::Matrix& data,
                              const std::vector<int32_t>& assignments,
                              int32_t k);

}  // namespace cluster
}  // namespace adahealth

#endif  // ADAHEALTH_CLUSTER_QUALITY_H_
