#include "ml/decision_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "ml/metrics.h"

namespace adahealth {
namespace ml {

using common::Status;
using transform::Matrix;

Status DecisionTreeClassifier::Fit(const Matrix& features,
                                   const std::vector<int32_t>& labels,
                                   int32_t num_classes) {
  if (features.rows() == 0 || features.cols() == 0) {
    return common::InvalidArgumentError("empty training data");
  }
  if (labels.size() != features.rows()) {
    return common::InvalidArgumentError("label count != sample count");
  }
  if (num_classes < 1) {
    return common::InvalidArgumentError("num_classes must be >= 1");
  }
  for (int32_t label : labels) {
    if (label < 0 || label >= num_classes) {
      return common::InvalidArgumentError("label outside [0, num_classes)");
    }
  }
  if (options_.max_depth < 0 || options_.min_samples_split < 2 ||
      options_.min_samples_leaf < 1) {
    return common::InvalidArgumentError("invalid decision-tree options");
  }

  nodes_.clear();
  depth_ = 0;
  num_classes_ = num_classes;
  num_features_ = features.cols();

  std::vector<size_t> sample_ids(features.rows());
  std::iota(sample_ids.begin(), sample_ids.end(), 0u);
  BuildNode(features, labels, sample_ids, 0, sample_ids.size(), 0);
  return common::OkStatus();
}

int32_t DecisionTreeClassifier::BuildNode(
    const Matrix& features, const std::vector<int32_t>& labels,
    std::vector<size_t>& sample_ids, size_t begin, size_t end,
    int32_t depth) {
  ADA_CHECK_LT(begin, end);
  depth_ = std::max(depth_, depth);
  const int32_t node_id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();

  // Class histogram and majority label of this node.
  std::vector<int64_t> counts(static_cast<size_t>(num_classes_), 0);
  for (size_t i = begin; i < end; ++i) {
    ++counts[static_cast<size_t>(labels[sample_ids[i]])];
  }
  int32_t majority = 0;
  for (int32_t c = 1; c < num_classes_; ++c) {
    if (counts[static_cast<size_t>(c)] >
        counts[static_cast<size_t>(majority)]) {
      majority = c;
    }
  }
  nodes_[static_cast<size_t>(node_id)].label = majority;

  const int64_t n = static_cast<int64_t>(end - begin);
  const double node_impurity = GiniImpurity(counts);
  if (depth >= options_.max_depth || n < options_.min_samples_split ||
      node_impurity == 0.0) {
    return node_id;
  }

  // Best split search: for every feature, sort this node's samples by
  // the feature value and sweep candidate thresholds between distinct
  // consecutive values, tracking class counts on the left.
  double best_gain = options_.min_impurity_decrease;
  int32_t best_feature = -1;
  double best_threshold = 0.0;

  std::vector<size_t> order(end - begin);
  std::vector<int64_t> left_counts(static_cast<size_t>(num_classes_));
  for (size_t f = 0; f < num_features_; ++f) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = sample_ids[begin + i];
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return features.At(a, f) < features.At(b, f);
    });
    if (features.At(order.front(), f) == features.At(order.back(), f)) {
      continue;  // Constant feature in this node.
    }
    std::fill(left_counts.begin(), left_counts.end(), 0);
    for (size_t i = 0; i + 1 < order.size(); ++i) {
      ++left_counts[static_cast<size_t>(labels[order[i]])];
      double value = features.At(order[i], f);
      double next_value = features.At(order[i + 1], f);
      if (value == next_value) continue;
      const int64_t left_n = static_cast<int64_t>(i + 1);
      const int64_t right_n = n - left_n;
      if (left_n < options_.min_samples_leaf ||
          right_n < options_.min_samples_leaf) {
        continue;
      }
      // Weighted impurity of the split.
      double left_impurity = GiniImpurity(left_counts);
      std::vector<int64_t> right_counts(counts);
      for (int32_t c = 0; c < num_classes_; ++c) {
        right_counts[static_cast<size_t>(c)] -=
            left_counts[static_cast<size_t>(c)];
      }
      double right_impurity = GiniImpurity(right_counts);
      double weighted =
          (static_cast<double>(left_n) * left_impurity +
           static_cast<double>(right_n) * right_impurity) /
          static_cast<double>(n);
      double gain = node_impurity - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int32_t>(f);
        best_threshold = 0.5 * (value + next_value);
        // The midpoint of two values one ulp apart can round up to
        // next_value (and a sum of huge magnitudes overflows to ±inf);
        // either would send both sides of the split the same way.
        // `value` itself always separates them under the `<=` rule.
        if (!(value <= best_threshold && best_threshold < next_value)) {
          best_threshold = value;
        }
      }
    }
  }
  if (best_feature < 0) return node_id;

  // Partition [begin, end) of sample_ids by the chosen split.
  auto middle = std::stable_partition(
      sample_ids.begin() + static_cast<ptrdiff_t>(begin),
      sample_ids.begin() + static_cast<ptrdiff_t>(end), [&](size_t id) {
        return features.At(id, static_cast<size_t>(best_feature)) <=
               best_threshold;
      });
  size_t split = static_cast<size_t>(middle - sample_ids.begin());
  ADA_CHECK_GT(split, begin);
  ADA_CHECK_LT(split, end);

  nodes_[static_cast<size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
  int32_t left = BuildNode(features, labels, sample_ids, begin, split,
                           depth + 1);
  int32_t right =
      BuildNode(features, labels, sample_ids, split, end, depth + 1);
  nodes_[static_cast<size_t>(node_id)].left = left;
  nodes_[static_cast<size_t>(node_id)].right = right;
  return node_id;
}

int32_t DecisionTreeClassifier::Predict(
    std::span<const double> features) const {
  ADA_CHECK(!nodes_.empty());
  ADA_CHECK_EQ(features.size(), num_features_);
  size_t current = 0;
  while (!nodes_[current].is_leaf()) {
    const Node& node = nodes_[current];
    current = static_cast<size_t>(
        features[static_cast<size_t>(node.feature)] <= node.threshold
            ? node.left
            : node.right);
  }
  return nodes_[current].label;
}

}  // namespace ml
}  // namespace adahealth
