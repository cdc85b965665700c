// CART decision-tree classifier (Gini impurity, binary splits on
// continuous features). This is the classification model of the paper's
// preliminary implementation: "In our first implementation, we used
// decision trees as classification model" (§IV-A) — trained to
// re-predict cluster labels from the clustering input features, its CV
// metrics measure cluster robustness.
//
// A fit starts from presorted segments (the SLIQ attribute-list idea,
// Mehta et al. 1996): PresortedFeatures sorts each feature's nonzero
// entries by (value, row) into one flat segment, once per matrix.
// Inputs are sparse exam-count vectors, so zeros are not stored. Every
// fit, whole-matrix or on a subset of rows, is the same row-subset fit:
// it copies the entries of its rows out of each segment, renumbering
// the rows to their positions in the subset. The renumbering is
// monotonic, so each copied segment is still sorted by (value, row) and
// equals the segment a presort of the copied rows
// (`features.SelectRows(rows)`) would build; the tree is therefore that
// copy's tree, node for node. The optimizer presorts its matrix once
// and every cross-validation fold of every candidate K fits from it.
// The copy also stores each entry's class label next to it, so the
// sweep never looks a label up by row.
//
// At a node, a feature's zeros form an implicit bucket whose class
// counts are the node's counts minus those of its nonzero entries
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

/// Every feature's nonzero entries of one matrix, each feature's sorted
/// by (value, row). Immutable once built, so concurrent fits may share
/// it.
class PresortedFeatures {
 public:
  struct Entry {
    double value;
    uint32_t row;
    /// The row's class label; set only in a fit's own copy.
    int32_t label;
  };

  /// Requires features.rows() < 2^31 (Fit and FitRows check it first).
  explicit PresortedFeatures(const transform::Matrix& features);

  size_t rows() const { return rows_; }
  size_t cols() const { return offsets_.size() - 1; }
  /// Total nonzero entries over all features.
  size_t size() const { return entries_.size(); }
  /// Feature f's nonzero entries, ascending by (value, row).
  std::span<const Entry> Segment(size_t f) const {
    return std::span<const Entry>(entries_).subspan(
        offsets_[f], offsets_[f + 1] - offsets_[f]);
  }

 private:
  size_t rows_;
  std::vector<size_t> offsets_;
  std::vector<Entry> entries_;
};

/// CART classifier. Fit() may be called repeatedly; each call retrains.
class DecisionTreeClassifier final : public Classifier {
 public:
  /// With `presorted`, FitRows fits from it instead of presorting its
  /// `features`, which must then be the matrix `presorted` was built
  /// from. The caller keeps `presorted` alive while the tree fits.
  explicit DecisionTreeClassifier(
      DecisionTreeOptions options = DecisionTreeOptions(),
      const PresortedFeatures* presorted = nullptr)
      : options_(options), presorted_(presorted) {}

  /// Also INVALID_ARGUMENT with 2^31 or more samples (the screen's
  /// squared counts must fit in int64_t).
  [[nodiscard]] common::Status Fit(const transform::Matrix& features,
                     const std::vector<int32_t>& labels,
                     int32_t num_classes) override;

  /// The tree Fit(features.SelectRows(rows), those rows' labels) builds,
  /// without copying the rows. Also INVALID_ARGUMENT when a shared
  /// presort's shape differs from `features`.
  [[nodiscard]] common::Status FitRows(const transform::Matrix& features,
                                       const std::vector<size_t>& rows,
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
  common::Status Validate(const transform::Matrix& features,
                          const std::vector<size_t>& rows,
                          const std::vector<int32_t>& labels,
                          int32_t num_classes) const;
  /// Fits on `rows` of the matrix `presorted` was built from.
  void Grow(const PresortedFeatures& presorted,
            const std::vector<size_t>& rows,
            const std::vector<int32_t>& labels, int32_t num_classes);

  DecisionTreeOptions options_;
  const PresortedFeatures* presorted_;
  size_t num_features_ = 0;
  int32_t depth_ = 0;
  std::vector<Node> nodes_;
};

}  // namespace ml
}  // namespace adahealth

#endif  // ADAHEALTH_ML_DECISION_TREE_H_
