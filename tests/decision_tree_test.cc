#include "ml/decision_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>
#include "common/check.h"
#include "common/rng.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "test_util.h"

namespace adahealth {
namespace ml {
namespace {

using transform::Matrix;

TEST(DecisionTreeTest, LearnsAxisAlignedSplit) {
  Matrix features(6, 1);
  std::vector<int32_t> labels{0, 0, 0, 1, 1, 1};
  for (size_t i = 0; i < 6; ++i) {
    features.At(i, 0) = static_cast<double>(i);
  }
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(features, labels, 2).ok());
  EXPECT_EQ(tree.Predict(std::vector<double>{0.5}), 0);
  EXPECT_EQ(tree.Predict(std::vector<double>{4.5}), 1);
  EXPECT_EQ(tree.Predict(std::vector<double>{2.4}), 0);
  EXPECT_EQ(tree.Predict(std::vector<double>{2.6}), 1);
}

TEST(DecisionTreeTest, FitsAsymmetricXorWithDepthTwo) {
  // XOR labels with unequal corner multiplicities so the greedy first
  // split has strictly positive Gini gain (pure XOR famously has zero
  // first-level gain for any axis-aligned split).
  struct Corner {
    double x;
    double y;
    int copies;
  };
  const Corner corners[] = {
      {0.0, 0.0, 4}, {1.0, 1.0, 2}, {0.0, 1.0, 2}, {1.0, 0.0, 2}};
  size_t total = 0;
  for (const Corner& corner : corners) {
    total += static_cast<size_t>(corner.copies);
  }
  Matrix features(total, 2);
  std::vector<int32_t> labels;
  size_t row = 0;
  for (const Corner& corner : corners) {
    for (int repeat = 0; repeat < corner.copies; ++repeat) {
      features.At(row, 0) = corner.x;
      features.At(row, 1) = corner.y;
      labels.push_back(static_cast<int32_t>(corner.x) ^
                       static_cast<int32_t>(corner.y));
      ++row;
    }
  }
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(features, labels, 2).ok());
  std::vector<int32_t> predicted = test::PredictBatch(tree, features);
  EXPECT_EQ(predicted, labels);
  EXPECT_GE(tree.depth(), 2);
}

TEST(DecisionTreeTest, PureNodeBecomesLeaf) {
  Matrix features(5, 2, 1.0);
  std::vector<int32_t> labels{1, 1, 1, 1, 1};
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(features, labels, 2).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.Predict(std::vector<double>{9.0, 9.0}), 1);
}

TEST(DecisionTreeTest, MaxDepthZeroGivesMajorityVote) {
  Matrix features(5, 1);
  for (size_t i = 0; i < 5; ++i) features.At(i, 0) = static_cast<double>(i);
  std::vector<int32_t> labels{0, 0, 0, 1, 1};
  DecisionTreeOptions options;
  options.max_depth = 0;
  DecisionTreeClassifier tree(options);
  ASSERT_TRUE(tree.Fit(features, labels, 2).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  for (double x : {0.0, 4.0}) {
    EXPECT_EQ(tree.Predict(std::vector<double>{x}), 0);
  }
}

TEST(DecisionTreeTest, MinSamplesLeafPreventsTinySplits) {
  Matrix features(10, 1);
  std::vector<int32_t> labels;
  for (size_t i = 0; i < 10; ++i) {
    features.At(i, 0) = static_cast<double>(i);
    labels.push_back(i == 9 ? 1 : 0);  // One outlier.
  }
  DecisionTreeOptions options;
  options.min_samples_leaf = 3;
  DecisionTreeClassifier tree(options);
  ASSERT_TRUE(tree.Fit(features, labels, 2).ok());
  // Splitting off the single outlier is forbidden; any allowed split
  // leaves the right child majority-0, so everything predicts 0.
  EXPECT_EQ(tree.Predict(std::vector<double>{9.0}), 0);
}

TEST(DecisionTreeTest, GeneralizesOnBlobs) {
  test::Blobs train = test::MakeBlobs(
      {{0.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}}, 50, 0.7, 51);
  test::Blobs test_set = test::MakeBlobs(
      {{0.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}}, 30, 0.7, 52);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(train.points, train.labels, 3).ok());
  std::vector<int32_t> predicted = test::PredictBatch(tree, test_set.points);
  int correct = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] == test_set.labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / predicted.size(), 0.95);
}

TEST(DecisionTreeTest, RefitReplacesModel) {
  Matrix features(4, 1);
  for (size_t i = 0; i < 4; ++i) features.At(i, 0) = static_cast<double>(i);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(features, {0, 0, 1, 1}, 2).ok());
  EXPECT_EQ(tree.Predict(std::vector<double>{3.0}), 1);
  ASSERT_TRUE(tree.Fit(features, {1, 1, 0, 0}, 2).ok());
  EXPECT_EQ(tree.Predict(std::vector<double>{3.0}), 0);
}

TEST(DecisionTreeTest, RejectsInvalidInput) {
  Matrix features(3, 1, 1.0);
  DecisionTreeClassifier tree;
  EXPECT_FALSE(tree.Fit(features, {0, 1}, 2).ok());         // Size mismatch.
  EXPECT_FALSE(tree.Fit(features, {0, 1, 5}, 2).ok());      // Label range.
  EXPECT_FALSE(tree.Fit(features, {0, 1, 1}, 0).ok());      // num_classes.
  EXPECT_FALSE(tree.Fit(Matrix(), {}, 2).ok());             // Empty.
  DecisionTreeOptions bad;
  bad.min_samples_split = 1;
  DecisionTreeClassifier bad_tree(bad);
  EXPECT_FALSE(bad_tree.Fit(features, {0, 1, 1}, 2).ok());
}

TEST(DecisionTreeTest, SplitsValuesWhoseMidpointRoundsOntoTheUpperOne) {
  // Each pair's upper value is the node maximum, so a threshold equal
  // to it (or beyond it) would send every sample left.
  const double max = std::numeric_limits<double>::max();
  // 1 + ulp has an odd significand: its midpoint with the next double
  // ties to even, which rounds up to that next double.
  const double odd = std::nextafter(1.0, 2.0);
  const double denormal = std::numeric_limits<double>::denorm_min();
  const std::pair<double, double> pairs[] = {
      {odd, std::nextafter(odd, 2.0)},
      {denormal, 2.0 * denormal},  // 1.5 denormals ties up to 2.
      {0.75 * max, max},           // The sum overflows to +inf.
      {-max, -0.75 * max},         // The sum overflows to -inf.
  };
  for (const auto& [low, high] : pairs) {
    const double midpoint = 0.5 * (low + high);
    ASSERT_FALSE(low <= midpoint && midpoint < high) << low << " " << high;
    Matrix features(4, 1);
    features.At(0, 0) = low;
    features.At(1, 0) = low;
    features.At(2, 0) = high;
    features.At(3, 0) = high;
    DecisionTreeClassifier tree;
    ASSERT_TRUE(tree.Fit(features, {0, 0, 1, 1}, 2).ok());
    ASSERT_EQ(tree.num_nodes(), 3u);
    EXPECT_EQ(tree.nodes()[0].threshold, low);
    EXPECT_EQ(tree.Predict(std::vector<double>{low}), 0);
    EXPECT_EQ(tree.Predict(std::vector<double>{high}), 1);
  }
}

// ---------------------------------------------------------------------
// Generated property test. Feature columns mix ulp neighbours,
// denormals, negatives, duplicates, constant columns and huge
// magnitudes; on every input Fit must succeed and every split must
// leave both children non-empty. Where the plain midpoint of every
// pair of distinct column values falls in [lower, upper), the tree
// must equal, node for node, the one the midpoint rule alone builds.

using Node = DecisionTreeClassifier::Node;

/// The CART builder with the plain midpoint threshold and no guard —
/// the oracle for inputs whose midpoints all separate their pair.
class MidpointOracle {
 public:
  MidpointOracle(const Matrix& features, const std::vector<int32_t>& labels,
                 int32_t num_classes, DecisionTreeOptions options)
      : features_(features),
        labels_(labels),
        num_classes_(num_classes),
        options_(options) {}

  std::vector<Node> Build() {
    std::vector<size_t> ids(features_.rows());
    std::iota(ids.begin(), ids.end(), 0u);
    BuildNode(ids, 0, ids.size(), 0);
    return nodes_;
  }

 private:
  int32_t BuildNode(std::vector<size_t>& ids, size_t begin, size_t end,
                    int32_t depth) {
    const int32_t node_id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    std::vector<int64_t> counts(static_cast<size_t>(num_classes_), 0);
    for (size_t i = begin; i < end; ++i) {
      ++counts[static_cast<size_t>(labels_[ids[i]])];
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
    double best_gain = kMinImpurityDecrease;
    int32_t best_feature = -1;
    double best_threshold = 0.0;
    std::vector<size_t> order(end - begin);
    for (size_t f = 0; f < features_.cols(); ++f) {
      for (size_t i = 0; i < order.size(); ++i) order[i] = ids[begin + i];
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return features_.At(a, f) < features_.At(b, f);
      });
      std::vector<int64_t> left(static_cast<size_t>(num_classes_), 0);
      for (size_t i = 0; i + 1 < order.size(); ++i) {
        ++left[static_cast<size_t>(labels_[order[i]])];
        const double value = features_.At(order[i], f);
        const double next_value = features_.At(order[i + 1], f);
        if (value == next_value) continue;
        const int64_t left_n = static_cast<int64_t>(i + 1);
        const int64_t right_n = n - left_n;
        if (left_n < options_.min_samples_leaf ||
            right_n < options_.min_samples_leaf) {
          continue;
        }
        std::vector<int64_t> right(counts);
        for (size_t c = 0; c < right.size(); ++c) right[c] -= left[c];
        const double weighted =
            (static_cast<double>(left_n) * GiniImpurity(left) +
             static_cast<double>(right_n) * GiniImpurity(right)) /
            static_cast<double>(n);
        const double gain = node_impurity - weighted;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int32_t>(f);
          best_threshold = 0.5 * (value + next_value);
        }
      }
    }
    if (best_feature < 0) return node_id;
    auto middle = std::stable_partition(
        ids.begin() + static_cast<ptrdiff_t>(begin),
        ids.begin() + static_cast<ptrdiff_t>(end), [&](size_t id) {
          return features_.At(id, static_cast<size_t>(best_feature)) <=
                 best_threshold;
        });
    const size_t split = static_cast<size_t>(middle - ids.begin());
    nodes_[static_cast<size_t>(node_id)].feature = best_feature;
    nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
    const int32_t left = BuildNode(ids, begin, split, depth + 1);
    const int32_t right = BuildNode(ids, split, end, depth + 1);
    nodes_[static_cast<size_t>(node_id)].left = left;
    nodes_[static_cast<size_t>(node_id)].right = right;
    return node_id;
  }

  const Matrix& features_;
  const std::vector<int32_t>& labels_;
  const int32_t num_classes_;
  const DecisionTreeOptions options_;
  std::vector<Node> nodes_;
};

/// The CART builder that sorts every feature at every node, kept
/// verbatim (one-ulp guard included) as the oracle for the presorted
/// tree: same feature, same threshold bits, same node order.
class SortPerNodeOracle {
 public:
  SortPerNodeOracle(const Matrix& features,
                    const std::vector<int32_t>& labels, int32_t num_classes,
                    DecisionTreeOptions options)
      : features_(features),
        labels_(labels),
        num_classes_(num_classes),
        num_features_(features.cols()),
        options_(options) {}

  std::vector<Node> Build() {
    std::vector<size_t> sample_ids(features_.rows());
    std::iota(sample_ids.begin(), sample_ids.end(), 0u);
    BuildNode(features_, labels_, sample_ids, 0, sample_ids.size(), 0);
    return nodes_;
  }

  int32_t depth() const { return depth_; }

 private:
  int32_t BuildNode(
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
    double best_gain = kMinImpurityDecrease;
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

  const Matrix& features_;
  const std::vector<int32_t>& labels_;
  const int32_t num_classes_;
  const size_t num_features_;
  const DecisionTreeOptions options_;
  int32_t depth_ = 0;
  std::vector<Node> nodes_;
};

/// Fills column `col` with one generated value family.
void FillColumn(common::Rng& rng, Matrix& features, size_t col) {
  const double max = std::numeric_limits<double>::max();
  const double denormal = std::numeric_limits<double>::denorm_min();
  const double bases[] = {1.0, -2.5, 0.1, 3.0e5, 1e-300, -7.0e200};
  const double base = bases[rng.UniformUint64(std::size(bases))];
  const int64_t family = rng.UniformInt(0, 5);
  for (size_t row = 0; row < features.rows(); ++row) {
    double value = base;
    switch (family) {
      case 0:  // Small integers: negatives and many duplicates.
        value = static_cast<double>(rng.UniformInt(-4, 4));
        break;
      case 1:  // Constant column.
        break;
      case 2:  // Up to three ulps above (or below) the base.
        for (int64_t step = rng.UniformInt(0, 3); step > 0; --step) {
          value = std::nextafter(value, base > 0 ? max : -max);
        }
        break;
      case 3:  // Denormals around zero.
        value = static_cast<double>(rng.UniformInt(-3, 3)) * denormal;
        break;
      case 4: {  // Huge magnitudes, up to ±DBL_MAX.
        const double scales[] = {0.5, 0.75, 0.9, 1.0};
        value = (test::Bernoulli(rng, 0.5) ? max : -max) *
                scales[rng.UniformUint64(std::size(scales))];
        break;
      }
      default:  // Ordinary reals.
        value = rng.UniformDouble(-100.0, 100.0);
        break;
    }
    features.At(row, col) = value;
  }
}

/// True when, in every column, the midpoint of every pair of distinct
/// values lies in [lower, upper) — where the oracle's rule is safe.
bool MidpointsSeparateEveryPair(const Matrix& features) {
  for (size_t col = 0; col < features.cols(); ++col) {
    std::vector<double> values;
    for (size_t row = 0; row < features.rows(); ++row) {
      values.push_back(features.At(row, col));
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    for (size_t i = 0; i < values.size(); ++i) {
      for (size_t j = i + 1; j < values.size(); ++j) {
        const double midpoint = 0.5 * (values[i] + values[j]);
        if (!(values[i] <= midpoint && midpoint < values[j])) return false;
      }
    }
  }
  return true;
}

/// Routes `rows` through node `id` and checks that every split sends
/// at least one training sample each way.
void ExpectNonEmptySplits(const DecisionTreeClassifier& tree,
                          const Matrix& features, int32_t id,
                          const std::vector<size_t>& rows) {
  const Node& node = tree.nodes()[static_cast<size_t>(id)];
  if (node.is_leaf()) return;
  std::vector<size_t> left;
  std::vector<size_t> right;
  for (size_t row : rows) {
    (features.At(row, static_cast<size_t>(node.feature)) <= node.threshold
         ? left
         : right)
        .push_back(row);
  }
  EXPECT_FALSE(left.empty()) << "node " << id;
  EXPECT_FALSE(right.empty()) << "node " << id;
  ExpectNonEmptySplits(tree, features, node.left, left);
  ExpectNonEmptySplits(tree, features, node.right, right);
}

TEST(DecisionTreePropertyTest, GeneratedColumnsNeverAbortAndMatchOracle) {
  common::Rng rng(20160416);
  int oracle_cases = 0;
  int guarded_cases = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const size_t rows = static_cast<size_t>(rng.UniformInt(2, 40));
    const size_t cols = static_cast<size_t>(rng.UniformInt(1, 4));
    const int32_t num_classes = static_cast<int32_t>(rng.UniformInt(2, 3));
    Matrix features(rows, cols);
    for (size_t col = 0; col < cols; ++col) FillColumn(rng, features, col);
    std::vector<int32_t> labels(rows);
    for (int32_t& label : labels) {
      label = static_cast<int32_t>(rng.UniformInt(0, num_classes - 1));
    }
    DecisionTreeOptions options;
    options.min_samples_leaf = static_cast<int32_t>(rng.UniformInt(1, 3));
    DecisionTreeClassifier tree(options);
    ASSERT_TRUE(tree.Fit(features, labels, num_classes).ok())
        << "trial " << trial;
    std::vector<size_t> all(rows);
    std::iota(all.begin(), all.end(), 0u);
    ExpectNonEmptySplits(tree, features, 0, all);

    if (!MidpointsSeparateEveryPair(features)) {
      ++guarded_cases;
      continue;
    }
    ++oracle_cases;
    std::vector<Node> expected =
        MidpointOracle(features, labels, num_classes, options).Build();
    ASSERT_EQ(tree.nodes().size(), expected.size()) << "trial " << trial;
    for (size_t i = 0; i < expected.size(); ++i) {
      const Node& got = tree.nodes()[i];
      EXPECT_EQ(got.feature, expected[i].feature) << trial << "/" << i;
      EXPECT_EQ(got.threshold, expected[i].threshold) << trial << "/" << i;
      EXPECT_EQ(got.left, expected[i].left) << trial << "/" << i;
      EXPECT_EQ(got.right, expected[i].right) << trial << "/" << i;
      EXPECT_EQ(got.label, expected[i].label) << trial << "/" << i;
    }
  }
  // Both halves of the property must actually be exercised.
  EXPECT_GE(oracle_cases, 100);
  EXPECT_GE(guarded_cases, 100);
}

/// Fills column `col` with one generated family, weighted towards the
/// zero-dominated columns of an exam-count VSM; the rest are FillColumn's
/// families. Any family's zeros may come out as a mix of +0.0 and -0.0.
void FillSparseColumn(common::Rng& rng, Matrix& features, size_t col) {
  const double denormal = std::numeric_limits<double>::denorm_min();
  const double zero_share = rng.UniformDouble(0.5, 0.97);
  const int64_t family = rng.UniformInt(0, 6);
  for (size_t row = 0; row < features.rows(); ++row) {
    const bool zero = test::Bernoulli(rng, zero_share);
    double value = 0.0;
    switch (family) {
      case 0:  // VSM exam counts.
        if (!zero) value = static_cast<double>(rng.UniformInt(1, 6));
        break;
      case 1:  // Sparse TF-IDF / L2-normalized weights.
        if (!zero) value = rng.UniformDouble(1e-3, 1.0);
        break;
      case 2:  // All zeros.
        break;
      case 3:  // No zeros: dense counts or dense reals of either sign.
        value = test::Bernoulli(rng, 0.5)
                    ? static_cast<double>(rng.UniformInt(1, 4))
                    : rng.UniformDouble(-1.0, 1.0);
        if (value == 0.0) value = 0.25;
        break;
      case 4:  // Negatives next to zero.
        if (!zero) {
          value = test::Bernoulli(rng, 0.5)
                      ? static_cast<double>(rng.UniformInt(-3, -1))
                      : -rng.UniformDouble(1e-3, 1.0);
          if (test::Bernoulli(rng, 0.3)) value = -value;
        }
        break;
      case 5:  // Denormals next to zero.
        if (!zero) {
          value = static_cast<double>(rng.UniformInt(1, 3)) * denormal;
          if (test::Bernoulli(rng, 0.5)) value = -value;
        }
        break;
      default:
        break;
    }
    features.At(row, col) = value;
  }
  if (family == 6) FillColumn(rng, features, col);
  if (test::Bernoulli(rng, 0.4)) {
    for (size_t row = 0; row < features.rows(); ++row) {
      if (features.At(row, col) == 0.0 && test::Bernoulli(rng, 0.5)) {
        features.At(row, col) = -0.0;
      }
    }
  }
}

TEST(DecisionTreePropertyTest, PresortedTreeMatchesSortPerNodeOracle) {
  common::Rng rng(20160516);
  int end_goal_cases = 0;
  int near_zero_thresholds = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const size_t rows = static_cast<size_t>(
        test::Bernoulli(rng, 0.2) ? rng.UniformInt(200, 400)
                                  : rng.UniformInt(2, 120));
    const size_t cols = static_cast<size_t>(rng.UniformInt(1, 40));
    const int32_t num_classes = static_cast<int32_t>(rng.UniformInt(1, 8));
    Matrix features(rows, cols);
    for (size_t col = 0; col < cols; ++col) {
      FillSparseColumn(rng, features, col);
    }
    std::vector<int32_t> labels(rows);
    for (int32_t& label : labels) {
      label = static_cast<int32_t>(rng.UniformInt(0, num_classes - 1));
    }
    DecisionTreeOptions options;
    if (test::Bernoulli(rng, 0.25)) {  // The end-goal engine's tree.
      options.max_depth = 8;
      options.min_samples_leaf = 2;
      ++end_goal_cases;
    } else {
      options.max_depth = static_cast<int32_t>(rng.UniformInt(0, 12));
      options.min_samples_split = static_cast<int32_t>(rng.UniformInt(2, 6));
      options.min_samples_leaf = static_cast<int32_t>(rng.UniformInt(1, 4));
    }
    DecisionTreeClassifier tree(options);
    ASSERT_TRUE(tree.Fit(features, labels, num_classes).ok())
        << "trial " << trial;
    SortPerNodeOracle oracle(features, labels, num_classes, options);
    const std::vector<Node> expected = oracle.Build();
    ASSERT_EQ(tree.nodes().size(), expected.size()) << "trial " << trial;
    EXPECT_EQ(tree.depth(), oracle.depth()) << "trial " << trial;
    for (size_t i = 0; i < expected.size(); ++i) {
      const Node& got = tree.nodes()[i];
      EXPECT_EQ(got.feature, expected[i].feature) << trial << "/" << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(got.threshold),
                std::bit_cast<uint64_t>(expected[i].threshold))
          << trial << "/" << i << ": " << got.threshold << " vs "
          << expected[i].threshold;
      EXPECT_EQ(got.left, expected[i].left) << trial << "/" << i;
      EXPECT_EQ(got.right, expected[i].right) << trial << "/" << i;
      EXPECT_EQ(got.label, expected[i].label) << trial << "/" << i;
      if (!got.is_leaf() && std::abs(got.threshold) <= 1e-300) {
        ++near_zero_thresholds;
      }
    }
    if (HasFailure()) break;
  }
  // The (8, 2) tree and splits right next to zero must be exercised.
  EXPECT_GE(end_goal_cases, 100);
  EXPECT_GE(near_zero_thresholds, 20);
}

/// Node for node, threshold bits included.
void ExpectSameTree(const DecisionTreeClassifier& got,
                    const DecisionTreeClassifier& expected,
                    const std::string& context) {
  ASSERT_EQ(got.nodes().size(), expected.nodes().size()) << context;
  EXPECT_EQ(got.depth(), expected.depth()) << context;
  for (size_t i = 0; i < expected.nodes().size(); ++i) {
    const Node& a = got.nodes()[i];
    const Node& b = expected.nodes()[i];
    EXPECT_EQ(a.feature, b.feature) << context << "/" << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.threshold),
              std::bit_cast<uint64_t>(b.threshold))
        << context << "/" << i << ": " << a.threshold << " vs "
        << b.threshold;
    EXPECT_EQ(a.left, b.left) << context << "/" << i;
    EXPECT_EQ(a.right, b.right) << context << "/" << i;
    EXPECT_EQ(a.label, b.label) << context << "/" << i;
  }
}

/// The fit on a copy of `rows` — what cross-validation did before the
/// shared presort.
DecisionTreeClassifier CopiedRowsFit(const Matrix& features,
                                     const std::vector<size_t>& rows,
                                     const std::vector<int32_t>& labels,
                                     int32_t num_classes,
                                     DecisionTreeOptions options) {
  std::vector<int32_t> row_labels;
  for (size_t row : rows) row_labels.push_back(labels[row]);
  DecisionTreeClassifier tree(options);
  ADA_CHECK(tree.Fit(features.SelectRows(rows), row_labels, num_classes).ok());
  return tree;
}

TEST(DecisionTreePropertyTest, RowSubsetFitFromSharedPresortMatchesCopiedRows) {
  common::Rng rng(20261019);
  int subset_cases = 0;
  int fold_cases = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const size_t rows = static_cast<size_t>(
        test::Bernoulli(rng, 0.2) ? rng.UniformInt(200, 400)
                                  : rng.UniformInt(2, 120));
    const size_t cols = static_cast<size_t>(rng.UniformInt(1, 30));
    const int32_t num_classes = static_cast<int32_t>(rng.UniformInt(1, 6));
    Matrix features(rows, cols);
    for (size_t col = 0; col < cols; ++col) {
      // The families above: ulp neighbours, denormals, ties and huge
      // magnitudes, and the zero-dominated VSM columns with signed zeros.
      if (test::Bernoulli(rng, 0.3)) {
        FillColumn(rng, features, col);
      } else {
        FillSparseColumn(rng, features, col);
      }
    }
    std::vector<int32_t> labels(rows);
    for (int32_t& label : labels) {
      label = static_cast<int32_t>(rng.UniformInt(0, num_classes - 1));
    }
    DecisionTreeOptions options;
    options.max_depth = static_cast<int32_t>(rng.UniformInt(0, 12));
    options.min_samples_leaf = static_cast<int32_t>(rng.UniformInt(1, 3));
    const PresortedFeatures presorted(features);

    std::vector<std::vector<size_t>> subsets;
    // Random ascending subsets, from one row to every row.
    for (int s = 0; s < 3; ++s) {
      const double keep = rng.UniformDouble(0.05, 1.0);
      std::vector<size_t> subset;
      for (size_t row = 0; row < rows; ++row) {
        if (test::Bernoulli(rng, keep)) subset.push_back(row);
      }
      if (subset.empty()) subset.push_back(rng.UniformUint64(rows));
      subsets.push_back(std::move(subset));
      ++subset_cases;
    }
    // Real cross-validation folds, when the labels can be stratified.
    const int32_t num_folds = static_cast<int32_t>(rng.UniformInt(2, 10));
    auto folds = StratifiedKFold(labels, num_classes, num_folds,
                                 rng.UniformUint64(1u << 30));
    if (folds.ok()) {
      for (const Fold& fold : *folds) {
        subsets.push_back(fold.train_ids);
        ++fold_cases;
      }
    }

    for (size_t s = 0; s < subsets.size(); ++s) {
      const std::vector<size_t>& subset = subsets[s];
      const std::string context =
          "trial " + std::to_string(trial) + " subset " + std::to_string(s);
      const DecisionTreeClassifier expected =
          CopiedRowsFit(features, subset, labels, num_classes, options);
      DecisionTreeClassifier shared(options, &presorted);
      ASSERT_TRUE(shared.FitRows(features, subset, labels, num_classes).ok())
          << context;
      ExpectSameTree(shared, expected, "shared " + context);
      DecisionTreeClassifier own(options);
      ASSERT_TRUE(own.FitRows(features, subset, labels, num_classes).ok())
          << context;
      ExpectSameTree(own, expected, "own presort " + context);
    }
    // A tree built with a shared presort still fits any matrix whole.
    DecisionTreeClassifier whole(options, &presorted);
    ASSERT_TRUE(whole.Fit(features, labels, num_classes).ok());
    std::vector<size_t> all(rows);
    std::iota(all.begin(), all.end(), size_t{0});
    ExpectSameTree(whole,
                   CopiedRowsFit(features, all, labels, num_classes, options),
                   "whole trial " + std::to_string(trial));
    if (HasFailure()) break;
  }
  EXPECT_GE(subset_cases, 1000);
  EXPECT_GE(fold_cases, 300);
}

TEST(DecisionTreeTest, FitRowsRejectsBadRowLists) {
  Matrix features(4, 2);
  for (size_t row = 0; row < 4; ++row) {
    features.At(row, 0) = static_cast<double>(row);
    features.At(row, 1) = row % 2 == 0 ? 0.0 : -1.5;
  }
  const std::vector<int32_t> labels = {0, 1, 0, 1};
  const PresortedFeatures presorted(features);
  DecisionTreeClassifier shared(DecisionTreeOptions(), &presorted);
  DecisionTreeClassifier own;
  GaussianNaiveBayes bayes;
  const std::vector<std::vector<size_t>> bad = {
      {},         // Empty.
      {1, 0, 2},  // Unsorted.
      {0, 2, 2},  // Repeated.
      {0, 1, 4},  // Out of range.
  };
  for (Classifier* model : std::initializer_list<Classifier*>{
           &shared, &own, &bayes}) {
    for (const std::vector<size_t>& rows : bad) {
      const common::Status status = model->FitRows(features, rows, labels, 2);
      EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument)
          << status.ToString();
    }
    // Labels are indexed like the matrix's rows, not the subset's.
    EXPECT_EQ(model->FitRows(features, {0, 1}, {0, 1}, 2).code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_TRUE(model->FitRows(features, {0, 1, 3}, labels, 2).ok());
  }
  // A shared presort of another shape is refused, not misread.
  const Matrix other(5, 2, 1.0);
  EXPECT_EQ(shared.FitRows(other, {0, 1}, {0, 1, 0, 1, 0}, 2).code(),
            common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ml
}  // namespace adahealth
