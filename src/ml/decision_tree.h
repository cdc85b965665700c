// CART decision-tree classifier (Gini impurity, binary splits on
// continuous features). This is the classification model of the paper's
// preliminary implementation: "In our first implementation, we used
// decision trees as classification model" (§IV-A) — trained to
// re-predict cluster labels from the clustering input features, its CV
// metrics measure cluster robustness.
#ifndef ADAHEALTH_ML_DECISION_TREE_H_
#define ADAHEALTH_ML_DECISION_TREE_H_

#include "ml/classifier.h"

namespace adahealth {
namespace ml {

struct DecisionTreeOptions {
  /// Maximum tree depth (root = depth 0).
  int32_t max_depth = 12;
  /// Minimum samples required to attempt a split.
  int32_t min_samples_split = 2;
  /// Minimum samples that must land in each child.
  int32_t min_samples_leaf = 1;
  /// A split must reduce weighted Gini impurity by at least this much.
  double min_impurity_decrease = 1e-7;
};

/// CART classifier. Fit() may be called repeatedly; each call retrains.
class DecisionTreeClassifier final : public Classifier {
 public:
  explicit DecisionTreeClassifier(
      DecisionTreeOptions options = DecisionTreeOptions())
      : options_(options) {}

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
  int32_t BuildNode(const transform::Matrix& features,
                    const std::vector<int32_t>& labels,
                    std::vector<size_t>& sample_ids, size_t begin, size_t end,
                    int32_t depth);

  DecisionTreeOptions options_;
  int32_t num_classes_ = 0;
  size_t num_features_ = 0;
  int32_t depth_ = 0;
  std::vector<Node> nodes_;
};

}  // namespace ml
}  // namespace adahealth

#endif  // ADAHEALTH_ML_DECISION_TREE_H_
