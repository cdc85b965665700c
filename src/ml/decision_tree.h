// CART decision-tree classifier (Gini impurity, binary splits on
// continuous features). This is the classification model of the paper's
// preliminary implementation: "In our first implementation, we used
// decision trees as classification model" (§IV-A) — trained to
// re-predict cluster labels from the clustering input features, its CV
// metrics measure cluster robustness.
//
// Fit presorts once (the SLIQ attribute-list idea, Mehta et al. 1996):
// each feature's nonzero entries are sorted by (value, row) into one
// flat segment. Inputs are sparse exam-count vectors, so zeros are not
// stored. At a node, a feature's zeros form an implicit bucket whose
// class counts are the node's counts minus those of its nonzero entries
// (-0.0 is a zero). One in-order sweep per feature then visits the
// node's distinct values ascending: negatives, the zero bucket if it is
// not empty, positives. After a split every segment is stably
// partitioned by side, so the children inherit sorted segments. The
// sweep keeps exact sums of squared class counts on each side, which
// give every boundary's weighted impurity without a division per class;
// only a boundary within rounding error of beating the best gain so far
// is evaluated with GiniImpurity. A node costs O(features + nonzeros in
// the node), plus O(classes) per boundary that passes that screen.
//
// The tree is the one a per-node sort of every feature builds, node for
// node and bit for bit: candidate thresholds sit only between distinct
// values, so the order of equal values inside a tie never reaches the
// class counts, the gains or the thresholds (the two zeros give the
// same midpoint with any neighbour). The screen skips only boundaries
// whose computed gain cannot exceed the best one, so the same strict
// `gain > best_gain` rule picks the same winner.
#ifndef ADAHEALTH_ML_DECISION_TREE_H_
#define ADAHEALTH_ML_DECISION_TREE_H_

#include "ml/classifier.h"

namespace adahealth {
namespace ml {

/// A split must reduce weighted Gini impurity by more than this.
inline constexpr double kMinImpurityDecrease = 1e-7;

struct DecisionTreeOptions {
  /// Maximum tree depth (root = depth 0).
  int32_t max_depth = 12;
  /// Minimum samples required to attempt a split.
  int32_t min_samples_split = 2;
  /// Minimum samples that must land in each child.
  int32_t min_samples_leaf = 1;
};

/// CART classifier. Fit() may be called repeatedly; each call retrains.
class DecisionTreeClassifier final : public Classifier {
 public:
  explicit DecisionTreeClassifier(
      DecisionTreeOptions options = DecisionTreeOptions())
      : options_(options) {}

  /// Also INVALID_ARGUMENT with 2^31 or more samples (the screen's
  /// squared counts must fit in int64_t).
  [[nodiscard]] common::Status Fit(const transform::Matrix& features,
                     const std::vector<int32_t>& labels,
                     int32_t num_classes) override;

  int32_t Predict(std::span<const double> features) const override;

  struct Node {
    // Internal nodes: route left when features[feature] <= threshold.
    int32_t feature = -1;
    double threshold = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    // Leaves: the majority class.
    int32_t label = 0;

    bool is_leaf() const { return left < 0; }
  };

  /// Number of nodes in the fitted tree (0 before Fit).
  size_t num_nodes() const { return nodes_.size(); }
  /// Depth of the fitted tree (0 for a single-leaf tree).
  int32_t depth() const { return depth_; }
  /// The fitted nodes in build order (root first; preorder).
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  DecisionTreeOptions options_;
  size_t num_features_ = 0;
  int32_t depth_ = 0;
  std::vector<Node> nodes_;
};

}  // namespace ml
}  // namespace adahealth

#endif  // ADAHEALTH_ML_DECISION_TREE_H_
